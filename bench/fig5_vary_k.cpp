// Reproduces Fig. 5 of the paper: the five algorithms as the number of
// mobile chargers K sweeps 1..5 with n = 1000 sensors.
//   (a) average longest tour duration;  (b) average dead duration/sensor.
//
// Extra flags: --n=1000 --kmax=5
#include "figure_common.h"
#include "trace_common.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const bench::TraceOutput trace(flags);
  const auto settings = bench::SweepSettings::from_flags(flags);
  const auto n = flags.get_size("n", 1000);
  const auto k_max = flags.get_count("kmax", 5);
  flags.reject_unknown();

  bench::FigureSweep sweep("Fig. 5", "K", settings);
  for (std::size_t k = 1; k <= k_max; ++k) {
    std::fprintf(stderr, "fig5: K = %zu ...\n", k);
    model::NetworkConfig config;
    config.num_chargers = k;
    sweep.add_point(std::to_string(k), [&](Rng& rng) {
      return model::make_instance(config, n, rng, settings.layout);
    });
  }
  return sweep.finish();
}
