#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/rng.h"
#include "rhessi/telemetry.h"

namespace hedc::e2e {

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "browse") {
    *out = Workload::kBrowse;
  } else if (name == "progressive") {
    *out = Workload::kProgressive;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kBrowse:
      return "browse";
    case Workload::kProgressive:
      return "progressive";
  }
  return "?";
}

Plan PlanFor(Workload w, bool smoke) {
  Plan p;
  p.workload = w;
  switch (w) {
    case Workload::kBrowse:
      // ~600 HLEs, each with its standard analysis committed at set-up.
      p.units = 400;
      p.photons_per_unit = 1000;
      p.seed_analyses = true;
      // About a tenth of the closed-loop capacity measured on a 4-core VM
      // (~580 page views/s), so the queue stays short while usage_stats
      // grows.
      p.open_rate_rps = 60;
      break;
    case Workload::kProgressive:
      // A small hot set that fits both the product cache and the name
      // mapper's cache.
      p.units = 96;
      p.photons_per_unit = 4000;
      p.hot_units = 24;
      // Set-ups take about a second here; more of them steady the median.
      p.setups = 5;
      // About a twentieth of the closed-loop capacity measured on a 4-core
      // VM (~500 actions/s, 3.5 requests each).
      p.open_rate_rps = 30;
      break;
  }
  if (smoke) {
    p.units /= 8;
    p.setups = 1;
    p.sessions = 4;
  }
  return p;
}

Dataset GenerateDataset(const Plan& plan, uint64_t seed) {
  // Background photons only: flares and bursts would make the photon
  // count, and with it set-up time and memory, depend on the seed.
  constexpr double kBackgroundRate = 1000;
  rhessi::TelemetryOptions options;
  // 2% spare so that Poisson arrivals still fill the last unit.
  options.duration_sec =
      1.02 * static_cast<double>(plan.units * plan.photons_per_unit) /
      kBackgroundRate;
  options.background_rate = kBackgroundRate;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = seed;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(options);
  Dataset out;
  std::vector<rhessi::RawDataUnit> units =
      rhessi::SegmentIntoUnits(telemetry.photons, plan.photons_per_unit, 1);
  units.resize(std::min(units.size(), plan.units));
  for (rhessi::RawDataUnit& unit : units) {
    std::vector<uint8_t> packed = unit.Pack();
    Result<rhessi::RawDataUnit> stored = rhessi::RawDataUnit::Unpack(packed);
    if (!stored.ok()) {
      std::fprintf(stderr, "unit %lld does not round-trip\n",
                   static_cast<long long>(unit.unit_id));
      std::abort();
    }
    out.photons += stored.value().photons.size();
    out.input_bytes += packed.size();
    out.units.push_back(std::move(stored).value());
    out.packed.push_back(std::move(packed));
  }
  return out;
}

std::vector<int64_t> HotUnits(const Plan& plan, uint64_t seed,
                              size_t n_units) {
  std::vector<int64_t> ids;
  for (size_t i = 1; i <= n_units; ++i) ids.push_back(static_cast<int64_t>(i));
  Rng rng(seed ^ 0x686f74u);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
  }
  ids.resize(std::min(ids.size(), plan.hot_units));
  return ids;
}

std::vector<double> ExactViewBins(const rhessi::RawDataUnit& unit,
                                  bool energy) {
  // Mirrors the binning of the ingest path's view writer.
  std::vector<double> bins(kViewBins, 0.0);
  double lo = unit.t_start;
  double hi = unit.t_stop + 1e-6;
  double width = (hi - lo) / static_cast<double>(bins.size());
  for (const rhessi::PhotonEvent& p : unit.photons) {
    if (p.time_sec < lo || p.time_sec >= hi) continue;
    size_t b = static_cast<size_t>((p.time_sec - lo) / width);
    if (b >= bins.size()) b = bins.size() - 1;
    bins[b] += energy ? p.energy_kev : 1.0;
  }
  return bins;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ToJson(const NumberMap& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += '"' + JsonEscape(k) + "\":" + JsonNumber(v);
  }
  return out + "}";
}

bool ParseNumberMap(const std::string& json, NumberMap* out) {
  size_t i = json.find('{');
  if (i == std::string::npos) return false;
  ++i;
  while (i < json.size()) {
    while (i < json.size() && (json[i] == ',' || json[i] == ' ')) ++i;
    if (i < json.size() && json[i] == '}') return true;
    if (i >= json.size() || json[i] != '"') return false;
    size_t end = json.find('"', i + 1);
    if (end == std::string::npos) return false;
    std::string key = json.substr(i + 1, end - i - 1);
    i = end + 1;
    if (i >= json.size() || json[i] != ':') return false;
    ++i;
    char* stop = nullptr;
    double v = std::strtod(json.c_str() + i, &stop);
    if (stop == json.c_str() + i) return false;
    (*out)[key] = v;
    i = static_cast<size_t>(stop - json.c_str());
  }
  return false;
}

}  // namespace hedc::e2e
