// Reproduces Fig. 3 of the paper: the five algorithms as the network size
// n sweeps 200..1200 with K = 2 mobile chargers.
//   (a) average longest tour duration;  (b) average dead duration/sensor.
//
// Extra flags: --nmin=200 --nmax=1200 --nstep=200 --chargers=2
#include "figure_common.h"
#include "trace_common.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const bench::TraceOutput trace(flags);
  const auto settings = bench::SweepSettings::from_flags(flags);
  const auto n_min = flags.get_size("nmin", 200);
  const auto n_max = flags.get_size("nmax", 1200);
  const auto n_step = flags.get_count("nstep", 200);
  const auto k = flags.get_count("chargers", 2);

  bench::FigureSweep sweep("Fig. 3", "n", settings);
  for (std::size_t n = n_min; n <= n_max; n += n_step) {
    std::fprintf(stderr, "fig3: n = %zu ...\n", n);
    model::NetworkConfig config;
    config.num_chargers = k;
    sweep.add_point(std::to_string(n), [&](Rng& rng) {
      return model::make_instance(config, n, rng, settings.layout);
    });
  }
  return sweep.finish();
}
