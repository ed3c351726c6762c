// Reproduces Figure 2: the number of FLOPs is a poor proxy for on-device
// latency and energy. We sample random architectures, bucket them by
// measured latency (and energy), and report how widely MACs spread within
// each narrow cost band — plus overall correlation statistics.

#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"
#include "space/flops.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace lightnas;

int main() {
  bench::banner("fig2_flops_vs_latency",
                "Figure 2 (FLOPs vs latency / energy on Xavier)");
  bench::Pipeline pipeline;

  const std::size_t samples = bench::scaled(3000, 600);
  util::Rng rng(7);

  std::vector<double> macs, lats, energies;
  util::CsvWriter csv({"macs_m", "latency_ms", "energy_mj"});
  for (std::size_t i = 0; i < samples; ++i) {
    const space::Architecture arch =
        pipeline.space.random_architecture(rng);
    const double m = space::count_macs(pipeline.space, arch) / 1e6;
    const double lat = pipeline.device.measure_latency_ms(pipeline.space,
                                                          arch);
    const double e = pipeline.device.measure_energy_mj(pipeline.space, arch);
    macs.push_back(m);
    lats.push_back(lat);
    energies.push_back(e);
    csv.add_row(std::vector<double>{m, lat, e});
  }
  csv.write_file("fig2_flops_vs_latency.csv");

  std::printf("sampled %zu random architectures\n\n", samples);
  std::printf("correlation(MACs, latency): pearson=%.3f kendall=%.3f\n",
              util::pearson(macs, lats), util::kendall_tau(macs, lats));
  std::printf("correlation(MACs, energy) : pearson=%.3f kendall=%.3f\n\n",
              util::pearson(macs, energies),
              util::kendall_tau(macs, energies));

  // Bucket by latency and report the MACs spread inside each band: the
  // visual message of Fig 2's scatter.
  util::Table table({"latency band (ms)", "#archs", "MACs min (M)",
                     "MACs max (M)", "MACs spread"});
  const double lo = util::min_of(lats);
  const double hi = util::max_of(lats);
  const int bands = 8;
  for (int b = 0; b < bands; ++b) {
    const double band_lo = lo + (hi - lo) * b / bands;
    const double band_hi = lo + (hi - lo) * (b + 1) / bands;
    double mn = 1e18, mx = 0.0;
    int count = 0;
    for (std::size_t i = 0; i < lats.size(); ++i) {
      if (lats[i] >= band_lo && lats[i] < band_hi) {
        mn = std::min(mn, macs[i]);
        mx = std::max(mx, macs[i]);
        ++count;
      }
    }
    if (count < 5) continue;
    // Appended, not `"x" + std::string`: GCC 12 warns (-Wrestrict) on the
    // insert-at-front that operator+(const char*, string&&) inlines to.
    std::string spread = "x";
    spread += util::fmt_double(mx / mn, 2);
    table.add_row({util::fmt_double(band_lo, 1) + " - " +
                       util::fmt_double(band_hi, 1),
                   std::to_string(count), util::fmt_double(mn, 0),
                   util::fmt_double(mx, 0), spread});
  }
  table.print(std::cout);

  std::printf(
      "\nPaper's claim: architectures with the same latency/energy can\n"
      "differ greatly in FLOPs. Bands above with spread >> x1.0 and a\n"
      "kendall tau well below 1.0 reproduce that conclusion.\n");
  return 0;
}
