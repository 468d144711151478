// Shared definitions of the hedc-e2e benchmark: workloads, their sizes and
// rates, the seeded dataset both processes regenerate, the analyses every
// HLE carries, and small timing/JSON helpers.
#ifndef HEDC_E2E_COMMON_H_
#define HEDC_E2E_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rhessi/raw_unit.h"

namespace hedc::e2e {

enum class Workload { kBrowse, kProgressive };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Everything that sizes one workload. Set-up size comes from the dataset
// fields; the measured window is an open-loop phase at a fixed rate, a
// closed-loop phase with `connections` connections, and a closing
// open-loop phase at the same rate.
struct Plan {
  Workload workload = Workload::kBrowse;
  // Dataset: seeded RHESSI telemetry cut into `units` raw units of
  // `photons_per_unit` photons.
  size_t units = 0;
  size_t photons_per_unit = 0;
  // Browse set-up: every HLE gets the standard analyses (kStandardAnalyses)
  // committed, so every HLE page embeds their images.
  bool seed_analyses = false;
  // Progressive: the Zipf-hot unit set (warmed during set-up).
  size_t hot_units = 0;
  // Window.
  double open_share = 0.5;    // share of the window run open-loop first
  double late_share = 0.1;    // ... and open-loop again at its end
  double open_rate_rps = 0;   // actions per second in the open loop
  int connections = 4;        // <= nproc
  int sessions = 32;          // logged-in browser sessions
  // Popularity exponent of HLEs (browse) and hot units (progressive):
  // Breslau et al., "Web Caching and Zipf-like Distributions" (INFOCOM
  // 1999), measured 0.64-0.83 for web request streams.
  double zipf_s = 0.8;
  // Set-ups made per run; setup_s is their median.
  int setups = 3;
};

Plan PlanFor(Workload w, bool smoke);

// Deterministic dataset of a workload: the packed raw units exactly as the
// server ingests them, unpacked again so that both processes see the
// quantized photon times the server stores.
struct Dataset {
  std::vector<rhessi::RawDataUnit> units;         // unpacked (quantized)
  std::vector<std::vector<uint8_t>> packed;       // what LoadRawUnit gets
  uint64_t photons = 0;
  uint64_t input_bytes = 0;                       // sum of packed sizes
};
Dataset GenerateDataset(const Plan& plan, uint64_t seed);

// Progressive: the hot units, a seeded choice of `plan.hot_units` ids out
// of 1..n_units, hottest first.
std::vector<int64_t> HotUnits(const Plan& plan, uint64_t seed,
                              size_t n_units);
// Refinement ladder of one progressive view: resolution levels requested
// coarse to fine; -1 is the full-fidelity stream.
inline const std::vector<int64_t> kViewLadder = {0, 2, 4, 6, 8, -1};
// Browse set-up: the analyses committed for every HLE, as routine names;
// each HLE page embeds one image per analysis.
inline const std::vector<std::string> kStandardAnalyses = {"lightcurve"};

// The 1024-bin view signal the ingest path stores for a unit: photon
// counts ("count") or summed keV ("energy") per bin.
std::vector<double> ExactViewBins(const rhessi::RawDataUnit& unit,
                                  bool energy);
inline constexpr size_t kViewBins = 1024;

// Steady-clock nanoseconds; CLOCK_MONOTONIC is shared by the client and
// the forked server, so timestamps compare across the two processes.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Minimal JSON writing.
std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);

// Flat key -> number maps, serialized as one JSON object.
using NumberMap = std::map<std::string, double>;
std::string ToJson(const NumberMap& m);
// Parses the output of ToJson (flat object of numbers only).
bool ParseNumberMap(const std::string& json, NumberMap* out);

}  // namespace hedc::e2e

#endif  // HEDC_E2E_COMMON_H_
