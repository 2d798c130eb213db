// google-benchmark micro benches for the algorithmic substrates and the
// end-to-end Appro pipeline: coverage lists, G_c, MIS construction,
// overlap graph, blossom-step matching, Christofides, min-max splitting,
// plan execution, and full scheduling at the paper's instance sizes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "assignment/hungarian.h"
#include "cluster/kmeans.h"
#include "core/appro.h"
#include "core/bounds.h"
#include "core/exact.h"
#include "core/overlap_graph.h"
#include "core/replan.h"
#include "energy/routing.h"
#include "figure_common.h"
#include "geometry/field.h"
#include "graph/mis.h"
#include "graph/mst.h"
#include "matching/blossom.h"
#include "matching/matching.h"
#include "model/charging_problem.h"
#include "obs/obs.h"
#include "schedule/execute.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/split.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace mcharge;

model::ChargingProblem make_round(std::size_t n, std::size_t k,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  return model::ChargingProblem(std::move(pts), std::move(deficits),
                                {50.0, 50.0}, 2.7, 1.0, k);
}

tsp::TourProblem make_tour_problem(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  tsp::TourProblem p;
  p.sites = geom::uniform_field(m, 100.0, 100.0, rng);
  for (std::size_t i = 0; i < m; ++i) {
    p.service.push_back(rng.uniform(0.0, 5400.0));
  }
  p.depot = {50.0, 50.0};
  return p;
}

void BM_ChargingProblem(benchmark::State& state) {
  // The round's one gamma-disk query: coverage lists N_c+ and tau.
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const std::vector<double> deficits(n, 5400.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::ChargingProblem(
        pts, deficits, {50.0, 50.0}, 2.7, 1.0, 2));
  }
}
BENCHMARK(BM_ChargingProblem)->Arg(200)->Arg(600)->Arg(1200);

void BM_ChargingGraph(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::charging_graph(problem));
  }
}
BENCHMARK(BM_ChargingGraph)->Arg(200)->Arg(600)->Arg(1200);

void BM_MaximalIndependentSet(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const model::ChargingProblem problem(geom::uniform_field(n, 100.0, 100.0,
                                                           rng),
                                       std::vector<double>(n, 0.0),
                                       {50.0, 50.0}, 2.7, 1.0, 1);
  const auto g = core::charging_graph(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::maximal_independent_set(g));
  }
}
BENCHMARK(BM_MaximalIndependentSet)->Arg(200)->Arg(600)->Arg(1200);

void BM_OverlapGraph(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 3);
  const auto gc = core::charging_graph(problem);
  const auto s_i = graph::maximal_independent_set(gc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::overlap_graph(problem, s_i));
  }
}
BENCHMARK(BM_OverlapGraph)->Arg(200)->Arg(600)->Arg(1200);

void BM_OddSetMatching(benchmark::State& state) {
  // kAuto on Christofides-sized odd sets (the dense blossom below
  // kSparseCrossover).
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::min_weight_euclidean_matching(pts));
  }
}
BENCHMARK(BM_OddSetMatching)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_LocalSearchMatching(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::local_search_matching(pts));
  }
}
BENCHMARK(BM_LocalSearchMatching)->Arg(50)->Arg(150)->Arg(400);

matching::MatchingOptions engine_options(std::int64_t engine) {
  matching::MatchingOptions opts;
  switch (engine) {
    case 0:
      opts.engine = matching::MatchingEngine::kDenseBlossom;
      break;
    case 1:
      opts.engine = matching::MatchingEngine::kSparseBlossom;
      break;
    default:
      opts.engine = matching::MatchingEngine::kLocalSearch;
      break;
  }
  return opts;
}

void BM_Blossom(benchmark::State& state) {
  // Engine shoot-out on uniform fields: arg0 = n, arg1 = engine
  // (0 = dense blossom, 1 = sparse price-and-repair, 2 = local search).
  // Dense is exact but O(n^2) memory / O(n^3) time, so its series stops
  // at 256; sparse and local search run through n = 4096. The 128..256
  // pairs bracket the dense/sparse crossover kSparseCrossover.
  Rng rng(19);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto opts = engine_options(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::min_weight_euclidean_matching(pts, opts));
  }
}
BENCHMARK(BM_Blossom)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({192, 0})
    ->Args({192, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Unit(benchmark::kMillisecond);

void BM_ChristofidesMatching(benchmark::State& state) {
  // The matching step alone, on the REAL odd-degree MST vertex set a
  // Christofides run produces over arg0 uniform sites (the odd set is
  // roughly 40% of the sites); arg1 = engine as in BM_Blossom.
  const auto p = make_tour_problem(static_cast<std::size_t>(state.range(0)), 6);
  std::vector<geom::Point> vertices = p.sites;
  vertices.insert(vertices.begin(), p.depot);
  const auto mst = graph::euclidean_mst(vertices);
  std::vector<std::size_t> degree(vertices.size(), 0);
  for (const auto& e : mst) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<geom::Point> odd;
  for (std::size_t v = 0; v < vertices.size(); ++v) {
    if (degree[v] % 2 == 1) odd.push_back(vertices[v]);
  }
  const auto opts = engine_options(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::min_weight_euclidean_matching(odd, opts));
  }
  state.counters["odd"] = static_cast<double>(odd.size());
}
BENCHMARK(BM_ChristofidesMatching)
    ->Args({350, 0})
    ->Args({350, 1})
    ->Args({350, 2})
    ->Args({1200, 0})
    ->Args({1200, 1})
    ->Args({1200, 2})
    ->Unit(benchmark::kMillisecond);

void BM_EuclideanMst(benchmark::State& state) {
  // Christofides' MST stage alone: Prim over depot + arg0 uniform sites,
  // streaming one distance row per step from the coordinates.
  const auto p = make_tour_problem(static_cast<std::size_t>(state.range(0)), 6);
  std::vector<geom::Point> vertices = p.sites;
  vertices.insert(vertices.begin(), p.depot);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::euclidean_mst(vertices));
  }
  state.SetLabel(simd::backend_name(simd::active_backend()));
}
BENCHMARK(BM_EuclideanMst)->Arg(350)->Arg(1200);

void BM_ChristofidesTour(benchmark::State& state) {
  const auto p =
      make_tour_problem(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsp::christofides_tour(p));
  }
}
BENCHMARK(BM_ChristofidesTour)->Arg(50)->Arg(150)->Arg(350);

void BM_TwoOpt(benchmark::State& state) {
  const auto p =
      make_tour_problem(static_cast<std::size_t>(state.range(0)), 7);
  const auto base = tsp::christofides_tour(p);
  p.drop_distance_cache();  // measure the uncached (on-the-fly) hot path
  for (auto _ : state) {
    auto tour = base;
    benchmark::DoNotOptimize(tsp::two_opt(p, tour));
  }
}
BENCHMARK(BM_TwoOpt)->Arg(50)->Arg(150)->Arg(350)->Arg(1200);

void BM_TwoOptCached(benchmark::State& state) {
  // Identical workload to BM_TwoOpt, but served from the precomputed
  // distance matrix. Produces bit-identical tours; the delta between the
  // two benches is pure distance-recomputation overhead.
  const auto p =
      make_tour_problem(static_cast<std::size_t>(state.range(0)), 7);
  const auto base = tsp::christofides_tour(p);
  p.ensure_distance_cache();
  for (auto _ : state) {
    auto tour = base;
    benchmark::DoNotOptimize(tsp::two_opt(p, tour));
  }
}
BENCHMARK(BM_TwoOptCached)->Arg(50)->Arg(150)->Arg(350)->Arg(1200);

void BM_OrOpt(benchmark::State& state) {
  const auto p =
      make_tour_problem(static_cast<std::size_t>(state.range(0)), 7);
  const auto base = tsp::christofides_tour(p);
  p.drop_distance_cache();
  for (auto _ : state) {
    auto tour = base;
    benchmark::DoNotOptimize(tsp::or_opt(p, tour));
  }
}
BENCHMARK(BM_OrOpt)->Arg(50)->Arg(150)->Arg(350);

void BM_OrOptCached(benchmark::State& state) {
  const auto p =
      make_tour_problem(static_cast<std::size_t>(state.range(0)), 7);
  const auto base = tsp::christofides_tour(p);
  p.ensure_distance_cache();
  for (auto _ : state) {
    auto tour = base;
    benchmark::DoNotOptimize(tsp::or_opt(p, tour));
  }
}
BENCHMARK(BM_OrOptCached)->Arg(50)->Arg(150)->Arg(350);

void BM_DistanceCacheBuild(benchmark::State& state) {
  const auto p =
      make_tour_problem(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    p.drop_distance_cache();
    p.ensure_distance_cache();
    benchmark::DoNotOptimize(p.distance(0, 1));
  }
}
BENCHMARK(BM_DistanceCacheBuild)->Arg(50)->Arg(150)->Arg(350)->Arg(1200);

void BM_MinMaxKTours(benchmark::State& state) {
  const auto p = make_tour_problem(300, 8);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsp::min_max_k_tours(p, k));
  }
}
BENCHMARK(BM_MinMaxKTours)->Arg(1)->Arg(2)->Arg(5);

void BM_ApproPlan(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 9);
  core::ApproScheduler appro;
  for (auto _ : state) {
    benchmark::DoNotOptimize(appro.plan(problem));
  }
}
BENCHMARK(BM_ApproPlan)->Arg(200)->Arg(600)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_ApproPlanAndExecute(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 10);
  core::ApproScheduler appro;
  for (auto _ : state) {
    const auto plan = appro.plan(problem);
    benchmark::DoNotOptimize(sched::execute_plan(problem, plan));
  }
}
BENCHMARK(BM_ApproPlanAndExecute)->Arg(200)->Arg(600)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_ExecutePlanOnly(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 11);
  core::ApproScheduler appro;
  const auto plan = appro.plan(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::execute_plan(problem, plan));
  }
}
BENCHMARK(BM_ExecutePlanOnly)->Arg(200)->Arg(600)->Arg(1200);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(12);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.uniform(0.0, 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(assignment::solve_assignment(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(256);

void BM_KMeans(benchmark::State& state) {
  Rng rng(13);
  const auto pts = geom::uniform_field(
      static_cast<std::size_t>(state.range(0)), 100.0, 100.0, rng);
  for (auto _ : state) {
    Rng seeder(14);
    benchmark::DoNotOptimize(cluster::kmeans(pts, 5, seeder));
  }
}
BENCHMARK(BM_KMeans)->Arg(200)->Arg(1200);

void BM_DelayLowerBound(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::delay_lower_bound(problem));
  }
}
BENCHMARK(BM_DelayLowerBound)->Arg(200)->Arg(1200);

void BM_ExactTinySolver(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 2, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exact_min_longest_delay(problem));
  }
}
BENCHMARK(BM_ExactTinySolver)->Arg(4)->Arg(5)->Arg(6);

void BM_ReplanMidRound(benchmark::State& state) {
  const auto problem =
      make_round(static_cast<std::size_t>(state.range(0)), 3, 18);
  core::ApproScheduler appro;
  const auto schedule = sched::execute_plan(problem, appro.plan(problem));
  const auto fleet = core::fleet_state_at(problem, schedule,
                                          0.4 * schedule.longest_delay());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::replan_from(problem, fleet));
  }
}
BENCHMARK(BM_ReplanMidRound)->Arg(200)->Arg(600)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelSweep(benchmark::State& state) {
  // One small figure-bench sweep point (3 instances x 5 algorithms, a
  // half-month horizon) under the given worker count. On a multi-core
  // machine the jobs > 1 runs show the wall-clock scaling of the
  // (instance, algorithm) work-item decomposition; the statistics are
  // byte-identical at every job count.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto algorithms = bench::paper_algorithms();
  bench::SweepSettings settings;
  settings.instances = 3;
  settings.months = 0.5;
  settings.seed = 21;
  settings.jobs = jobs;
  model::NetworkConfig config;
  config.num_chargers = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::run_point(settings, algorithms, [&](Rng& rng) {
          return model::make_instance(config, 200, rng);
        }));
  }
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Simulate(benchmark::State& state) {
  // One month of simulated time under Appro at n sensors. Exercises the
  // SoA drain scans (simd::crossing_min / simd::advance_select_below) plus
  // the per-round scheduling.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  model::NetworkConfig config;
  config.num_chargers = 4;
  const auto instance = model::make_instance(config, n, rng);
  core::ApproScheduler appro;
  sim::SimConfig sim_config;
  sim_config.monitoring_period_s = 30.0 * 86400.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(instance, appro, sim_config));
  }
}
BENCHMARK(BM_Simulate)->Arg(200)->Arg(1200)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_ObsOverhead(benchmark::State& state) {
  // Cost of the tracing layer on an instrumented end-to-end workload:
  // arg0 = 0 runs a full Appro plan with tracing off (only the per-site
  // static-init branch in the path), arg0 = 1 with tracing on (clock
  // reads + relaxed atomics at every span/counter). The contract is that
  // the enabled/disabled ratio stays within noise (< 1% overhead) —
  // scripts/check_trace.sh regression-checks exactly this pair. Under
  // -DMCHARGE_NO_OBS both variants time the macro-free binary.
  Rng rng(31);
  const auto pts = geom::uniform_field(400, 100.0, 100.0, rng);
  std::vector<double> deficits;
  deficits.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  auto pts_copy = pts;
  const model::ChargingProblem problem(std::move(pts_copy),
                                       std::move(deficits), {50.0, 50.0},
                                       2.7, 1.0, 3);
  obs::reset();
  const obs::EnabledScope scope(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ApproScheduler().plan(problem));
  }
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RoutingTree(benchmark::State& state) {
  // The min-hop data-routing tree model::make_instance builds once per
  // instance: n sensors in the default 100 m field, sink at the centre.
  Rng rng(37);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  std::vector<double> rates(n);
  for (auto& r : rates) r = rng.uniform(1e3, 50e3);
  const energy::RadioParams radio;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        energy::build_routing_tree(pts, {50.0, 50.0}, radio, rates));
  }
}
BENCHMARK(BM_RoutingTree)->Arg(200)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// google-benchmark owns argv (and rejects unknown --flags), so the
// tracing hookup rides on the environment instead: MCHARGE_TRACE_OUT=PATH
// enables the obs layer for the whole run and writes the accumulated
// TraceReport as mcharge.trace.v1 JSON on exit. scripts/check_trace.sh
// uses this to diff span timings against the benches measuring the same
// code (e.g. appro.plan vs BM_ApproPlan).
int main(int argc, char** argv) {
  const char* trace_out = std::getenv("MCHARGE_TRACE_OUT");
  if (trace_out != nullptr && trace_out[0] != '\0') {
    mcharge::obs::reset();
    mcharge::obs::set_enabled(true);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (trace_out != nullptr && trace_out[0] != '\0') {
    mcharge::obs::set_enabled(false);
    if (mcharge::obs::write_trace_json(trace_out)) {
      std::fprintf(stderr, "trace: wrote %s\n", trace_out);
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n", trace_out);
      return 1;
    }
  }
  return 0;
}
