// Reproduces Fig. 4 of the paper: the five algorithms as the maximum data
// rate b_max sweeps 10..50 kbps with n = 1000 sensors and K = 2 chargers
// (b_min stays 1 kbps).
//   (a) average longest tour duration;  (b) average dead duration/sensor.
//
// Extra flags: --n=1000 --chargers=2
#include "figure_common.h"
#include "trace_common.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const bench::TraceOutput trace(flags);
  const auto settings = bench::SweepSettings::from_flags(flags);
  const auto n = flags.get_size("n", 1000);
  const auto k = flags.get_count("chargers", 2);

  bench::FigureSweep sweep("Fig. 4", "b_max_kbps", settings);
  for (int bmax_kbps = 10; bmax_kbps <= 50; bmax_kbps += 10) {
    std::fprintf(stderr, "fig4: b_max = %d kbps ...\n", bmax_kbps);
    model::NetworkConfig config;
    config.num_chargers = k;
    config.rate_max_bps = bmax_kbps * 1e3;
    sweep.add_point(std::to_string(bmax_kbps), [&](Rng& rng) {
      return model::make_instance(config, n, rng, settings.layout);
    });
  }
  return sweep.finish();
}
