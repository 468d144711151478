#include "client.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "analysis/product.h"
#include "core/rng.h"
#include "http_client.h"
#include "server.h"
#include "stats.h"
#include "wavelet/codec.h"

namespace hedc::e2e {
namespace {

// ---------------------------------------------------------------------------
// The forked server and its command pipes.

class ServerProcess {
 public:
  ~ServerProcess() { Stop(); }

  bool Spawn(const Plan& plan, uint64_t seed, const std::string& state_dir) {
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return false;
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(to_child[1]);
      ::close(from_child[0]);
      ServerArgs args;
      args.plan = plan;
      args.seed = seed;
      args.state_dir = state_dir;
      args.command_fd = to_child[0];
      args.reply_fd = from_child[1];
      int code = RunServer(args);
      std::fflush(nullptr);
      ::_exit(code);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    command_fd_ = to_child[1];
    reply_fd_ = from_child[0];
    std::string ready, hles;
    if (!ReadLine(&ready) || ready.rfind("READY ", 0) != 0 ||
        !ReadLine(&hles)) {
      return false;
    }
    port_ = std::atoi(ready.c_str() + 6);
    hles_ = ParsePairs(hles);
    return true;
  }

  std::string Command(const std::string& command) {
    std::string line = command + "\n";
    if (::write(command_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      return "";
    }
    std::string reply;
    ReadLine(&reply);
    return reply;
  }

  // Asks the server to exit and waits for it; true if it exited cleanly.
  bool Stop() {
    if (pid_ <= 0) return true;
    if (command_fd_ >= 0) {
      ssize_t ignored = ::write(command_fd_, "quit\n", 5);
      (void)ignored;
      ::close(command_fd_);
      command_fd_ = -1;
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (reply_fd_ >= 0) ::close(reply_fd_);
    reply_fd_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int port() const { return port_; }
  const std::vector<std::pair<int64_t, int64_t>>& hles() const {
    return hles_;
  }

 private:
  bool ReadLine(std::string* line) {
    line->clear();
    char buf[4096];
    while (true) {
      size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        *line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return true;
      }
      ssize_t n = ::read(reply_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      pending_.append(buf, static_cast<size_t>(n));
    }
  }

  static std::vector<std::pair<int64_t, int64_t>> ParsePairs(
      const std::string& line) {
    std::vector<std::pair<int64_t, int64_t>> out;
    std::istringstream in(line);
    std::string token;
    in >> token;  // tag
    while (in >> token) {
      size_t colon = token.find(':');
      out.emplace_back(std::atoll(token.c_str()),
                       std::atoll(token.c_str() + colon + 1));
    }
    return out;
  }

  pid_t pid_ = -1;
  int command_fd_ = -1;
  int reply_fd_ = -1;
  int port_ = 0;
  std::string pending_;
  std::vector<std::pair<int64_t, int64_t>> hles_;
};

// ---------------------------------------------------------------------------
// Seeded choices.

class Zipf {
 public:
  Zipf(size_t n, double s) {
    double sum = 0;
    for (size_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    double u = rng.NextDouble();
    size_t i = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(
                               rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

// ---------------------------------------------------------------------------
// Samples.

enum ReqType { kHle, kImage, kView, kApprox, kAnalyze, kLogin };

// kOpen and kLate are the open-loop phases at the start and the end of the
// window, kClosed the closed loop between them.
enum Phase : uint8_t { kOpen, kClosed, kLate, kProbe, kPrep };

struct Sample {
  uint8_t type;
  uint8_t phase;
  bool ok;
  int64_t due_ns;
  int64_t send_ns;
  int64_t done_ns;
};

// What one client thread records.
struct Recorder {
  std::vector<Sample> samples;
  std::vector<double> late_us;         // open loop: send - due
  std::vector<double> first_paint_us;  // (phase, value) kept per phase
  std::vector<double> full_view_us;
  std::vector<double> probe_fresh_ms;
  std::vector<double> probe_reuse_us;
  std::vector<double> decode_us;
  int64_t first_paint_bytes = 0;
  int64_t full_bytes = 0;
  int64_t views = 0;
  int64_t page_views = 0;  // browse: pages, their HTML and image bytes
  int64_t html_bytes = 0;
  int64_t image_bytes = 0;
  int64_t bound_violations = 0;
  int64_t fresh_submits = 0;  // distinct new parameter sets submitted
  std::set<int64_t> items;    // archive items fetched by /image
  std::vector<std::string> errors;

  void Merge(Recorder&& o) {
    auto cat = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    cat(late_us, o.late_us);
    cat(first_paint_us, o.first_paint_us);
    cat(full_view_us, o.full_view_us);
    cat(probe_fresh_ms, o.probe_fresh_ms);
    cat(probe_reuse_us, o.probe_reuse_us);
    cat(decode_us, o.decode_us);
    first_paint_bytes += o.first_paint_bytes;
    full_bytes += o.full_bytes;
    views += o.views;
    page_views += o.page_views;
    html_bytes += o.html_bytes;
    image_bytes += o.image_bytes;
    bound_violations += o.bound_violations;
    fresh_submits += o.fresh_submits;
    items.insert(o.items.begin(), o.items.end());
    for (std::string& e : o.errors) {
      if (errors.size() < 20) errors.push_back(std::move(e));
    }
  }
};

// ---------------------------------------------------------------------------
// The oracle's independent knowledge: the dataset regenerated from the
// seed, plus the ids the server assigned (used only as addresses).

struct Truth {
  Plan plan;
  uint64_t seed = 0;
  Dataset data;
  std::vector<int64_t> hle_ids;
  std::vector<int64_t> hot_units;
  std::unordered_map<int64_t, std::vector<double>> exact_count, exact_energy;
  std::string image_magic;
  // Browse: HLE popularity order (a seeded shuffle).
  std::vector<int64_t> hle_order;
  // Analyses the probe added before the window, by HLE.
  std::unordered_map<int64_t, size_t> extra_analyses;

  const rhessi::RawDataUnit& Unit(int64_t id) const {
    return data.units[static_cast<size_t>(id - 1)];
  }
};

// The hle_id of an /analyze target.
int64_t HleOf(const std::string& target) {
  size_t p = target.find("hle_id=");
  return p == std::string::npos ? 0 : std::atoll(target.c_str() + p + 7);
}

bool Contains(const std::string& body, const std::string& needle) {
  return body.find(needle) != std::string::npos;
}

class Client {
 public:
  Client(const Truth& truth, int port) : truth_(truth), port_(port) {}

  // One request on `w`'s connection, timed from `due_ns`.
  HttpReply Send(Recorder& w, HttpConnection& conn, ReqType type,
                  uint8_t phase, const std::string& target,
                  const std::string& cookie, int64_t due_ns, size_t* index) {
    Sample s{static_cast<uint8_t>(type), phase, false, due_ns, NowNs(), 0};
    HttpReply reply = conn.Get(target, cookie);
    s.done_ns = NowNs();
    *index = w.samples.size();
    w.samples.push_back(s);
    return reply;
  }

  void Mark(Recorder& w, size_t index, bool ok, const std::string& what) {
    w.samples[index].ok = ok;
    if (!ok && w.errors.size() < 20) w.errors.push_back(what);
  }

  // --- browse -------------------------------------------------------------

  // One browse action: the paper's Fig. 4 request, an HLE page view. The
  // page (first paint), then the image of every analysis it embeds, in
  // page order (full view).
  void BrowseAction(Recorder& w, HttpConnection& conn, Rng& rng,
                    const Zipf& hle_z, const std::string& cookie,
                    uint8_t phase, int64_t due) {
    int64_t hle = truth_.hle_order[hle_z.Sample(rng)];
    size_t idx;
    HttpReply page = Send(w, conn, kHle, phase,
                           "/hle?id=" + std::to_string(hle), cookie, due,
                           &idx);
    auto extra = truth_.extra_analyses.find(hle);
    size_t expected = kStandardAnalyses.size() +
                      (extra == truth_.extra_analyses.end() ? 0
                                                            : extra->second);
    std::vector<int64_t> images;
    for (size_t pos = 0; (pos = page.body.find("/image?item=", pos)) !=
                         std::string::npos;) {
      pos += 12;
      images.push_back(std::atoll(page.body.c_str() + pos));
    }
    bool ok = page.status == 200 &&
              Contains(page.body, "<h2>HLE " + std::to_string(hle) + " (") &&
              Contains(page.body,
                       "<p>" + std::to_string(expected) + " analyses,") &&
              images.size() == expected;
    Mark(w, idx, ok, "hle " + std::to_string(hle));
    ++w.page_views;
    w.html_bytes += static_cast<int64_t>(page.body.size());
    int64_t done = w.samples[idx].done_ns;
    if (phase == kOpen) w.first_paint_us.push_back((done - due) / 1e3);
    for (size_t i = 0; ok && i < images.size(); ++i) {
      ok = FetchImage(w, conn, images[i], cookie, phase, done, &done);
    }
    if (phase == kOpen) w.full_view_us.push_back((done - due) / 1e3);
  }

  // /image for an ANA image: a rendered image.
  bool FetchImage(Recorder& w, HttpConnection& conn, int64_t item,
                  const std::string& cookie, uint8_t phase, int64_t due,
                  int64_t* done) {
    size_t idx;
    HttpReply r = Send(w, conn, kImage, phase,
                        "/image?item=" + std::to_string(item), cookie, due,
                        &idx);
    bool ok = r.status == 200 && r.body.size() > truth_.image_magic.size() &&
              r.body.compare(0, truth_.image_magic.size(),
                             truth_.image_magic) == 0;
    Mark(w, idx, ok,
         "image " + std::to_string(item) + " -> " + std::to_string(r.status) +
             " " + r.body.substr(0, 120));
    w.items.insert(item);
    w.image_bytes += static_cast<int64_t>(r.body.size());
    *done = w.samples[idx].done_ns;
    return ok;
  }

  // --- progressive --------------------------------------------------------

  void ProgressiveAction(Recorder& w, HttpConnection& conn, Rng& rng,
                         const Zipf& hot_z, const std::string& cookie,
                         uint8_t phase, int64_t due) {
    int64_t unit = truth_.hot_units[hot_z.Sample(rng)];
    bool energy = rng.NextDouble() < 0.5;
    const std::vector<double>& exact =
        (energy ? truth_.exact_energy : truth_.exact_count).at(unit);
    size_t idx;
    if (rng.NextDouble() < 0.5) {
      // StreamCorder-style view: coarse to fine, decoding every prefix.
      int64_t at = due;
      bool ok = true;
      for (size_t step = 0; ok && step < kViewLadder.size(); ++step) {
        int64_t level = kViewLadder[step];
        HttpReply r = Send(
            w, conn, kView, phase,
            "/view?unit=" + std::to_string(unit) +
                "&kind=" + (energy ? "energy" : "count") +
                "&resolution=" + std::to_string(level),
            cookie, at, &idx);
        wavelet::PrefixInfo info;
        int64_t t0 = NowNs();
        Result<std::vector<double>> bins =
            r.status == 200
                ? wavelet::DecodeSignalPrefix(
                      reinterpret_cast<const uint8_t*>(r.body.data()),
                      r.body.size(), &info)
                : Result<std::vector<double>>(Status::Internal("status"));
        int64_t decoded = NowNs();
        w.decode_us.push_back((decoded - t0) / 1e3);
        ok = bins.ok() && bins.value().size() == exact.size();
        if (ok) {
          double err = 0;
          for (size_t i = 0; i < exact.size(); ++i) {
            double d = bins.value()[i] - exact[i];
            err += d * d;
          }
          ok = std::sqrt(err) <= info.L2ErrorBound() * (1 + 1e-9) + 1e-6;
          if (level == -1) ok = ok && info.prefix_bytes == info.full_bytes;
        }
        Mark(w, idx, ok,
             "view unit " + std::to_string(unit) + " level " +
                 std::to_string(level));
        if (!ok) w.bound_violations += bins.ok() ? 1 : 0;
        at = decoded;
        if (phase == kOpen && step == 0) {
          w.first_paint_us.push_back((decoded - due) / 1e3);
          w.first_paint_bytes += static_cast<int64_t>(r.body.size());
        }
        if (step + 1 == kViewLadder.size()) {
          if (phase == kOpen) w.full_view_us.push_back((decoded - due) / 1e3);
          w.full_bytes += static_cast<int64_t>(r.body.size());
          ++w.views;
        }
      }
      return;
    }
    // Approximate aggregate over whole bins [a, b): the query range sits
    // half a bin inside the bin edges so rounding cannot move it.
    size_t a = static_cast<size_t>(rng.UniformInt(0, kViewBins - 2));
    size_t b = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(a) + 1, kViewBins));
    const rhessi::RawDataUnit& u = truth_.Unit(unit);
    double width = (u.t_stop + 1e-6 - u.t_start) / kViewBins;
    char target[256];
    std::snprintf(target, sizeof(target),
                  "/approx?unit=%lld&agg=%s&t_lo=%.17g&t_hi=%.17g",
                  static_cast<long long>(unit), energy ? "sum" : "count",
                  u.t_start + (a + 0.5) * width,
                  u.t_start + (b - 0.5) * width);
    HttpReply r = Send(w, conn, kApprox, phase, target, cookie, due, &idx);
    double truth = 0;
    for (size_t i = a; i < b; ++i) truth += exact[i];
    double estimate = 0, bound = -1;
    size_t e = r.body.find("\"estimate\":");
    size_t eb = r.body.find("\"error_bound\":");
    if (e != std::string::npos && eb != std::string::npos) {
      estimate = std::atof(r.body.c_str() + e + 11);
      bound = std::atof(r.body.c_str() + eb + 14);
    }
    bool answered = r.status == 200 && bound >= 0 &&
                    Contains(r.body, "\"method\":\"wavelet-prefix\"") &&
                    Contains(r.body, "\"bins\":" + std::to_string(b - a) + ",");
    bool within = std::fabs(estimate - truth) <=
                  bound + 1e-9 * std::max(1.0, std::fabs(truth));
    if (answered && !within) ++w.bound_violations;
    Mark(w, idx, answered && within,
         std::string("approx ") + target);
  }

  // --- analysis probe -------------------------------------------------------

  // A fresh parameter set: the routines in turn, a random HLE and an
  // energy floor unique to `serial`, so no two fresh jobs share a product
  // key.
  std::string FreshTarget(Rng& rng, int64_t serial) {
    static const char* const kRoutines[] = {"lightcurve", "histogram",
                                            "spectrogram"};
    static const char* const kExtra[] = {"&bin_sec=2", "&bins=48",
                                         "&t_bins=32&e_bins=16"};
    int r = static_cast<int>(serial % 3);
    int64_t hle = truth_.hle_ids[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(truth_.hle_ids.size()) - 1))];
    char e_min[32];
    std::snprintf(e_min, sizeof(e_min), "%.4f", 3.0 + 1e-4 * serial);
    return "/analyze?hle_id=" + std::to_string(hle) + "&routine=" +
           kRoutines[r] + kExtra[r] + "&e_min=" + e_min;
  }

  // Parses the ANA id an /analyze page links to; 0 if absent. `reused`
  // tells whether the page offered an existing analysis.
  static int64_t AnaIdOf(const HttpReply& r, bool* reused) {
    *reused = Contains(r.body, "Identical analysis already available");
    bool complete = Contains(r.body, "finished; result stored as");
    size_t p = r.body.find("/ana?id=");
    if (r.status != 200 || (!*reused && !complete) || p == std::string::npos) {
      return 0;
    }
    return std::atoll(r.body.c_str() + p + 8);
  }

  // One /analyze submission; returns the ANA id its page links to.
  int64_t Submit(Recorder& w, HttpConnection& conn, const std::string& target,
                 const std::string& cookie, uint8_t phase, int64_t* latency_ns,
                 bool* reused) {
    size_t idx;
    int64_t due = NowNs();
    HttpReply r = Send(w, conn, kAnalyze, phase, target, cookie, due, &idx);
    int64_t ana = AnaIdOf(r, reused);
    *latency_ns = w.samples[idx].done_ns - due;
    Mark(w, idx, ana > 0,
         "analyze " + target + " -> " + std::to_string(r.status) + " " +
             r.body.substr(0, 200));
    return ana;
  }

  const Truth& truth_;
  int port_;
};

// ---------------------------------------------------------------------------
// Metrics from server snapshots.

struct Snapshot {
  int64_t t_ns = 0;
  bool traced = false;  // tracing was on during the interval ending here
  NumberMap v;
};

bool ParseReport(const std::string& report, NumberMap* setup,
                 std::vector<Snapshot>* snaps) {
  size_t s = report.find("\"setup\":");
  if (s == std::string::npos) return false;
  if (!ParseNumberMap(report.substr(s + 8, report.find('}', s) - s - 7),
                      setup)) {
    return false;
  }
  size_t pos = report.find("\"snapshots\":[");
  if (pos == std::string::npos) return false;
  pos += 13;
  while ((pos = report.find("{\"t_ns\":", pos)) != std::string::npos) {
    Snapshot snap;
    snap.t_ns = std::atoll(report.c_str() + pos + 8);
    size_t tr = report.find("\"traced\":", pos);
    snap.traced = report[tr + 9] == '1';
    size_t v = report.find("\"v\":", tr);
    size_t end = report.find('}', v);
    if (!ParseNumberMap(report.substr(v + 4, end - v - 3), &snap.v)) {
      return false;
    }
    snaps->push_back(std::move(snap));
    pos = end;
  }
  return true;
}

// Sums of counter deltas over the intervals that lie within [from, to]
// and (when `traced_only`) had tracing on.
class Deltas {
 public:
  // Slack for snapshots taken just before or after a phase edge.
  static constexpr int64_t kEdgeNs = 20000000;

  Deltas(const std::vector<Snapshot>& snaps, int64_t from, int64_t to,
         bool traced_only) {
    for (size_t i = 1; i < snaps.size(); ++i) {
      if (snaps[i - 1].t_ns < from - kEdgeNs || snaps[i].t_ns > to + kEdgeNs) {
        continue;
      }
      if (traced_only && !snaps[i].traced) continue;
      for (const auto& [k, val] : snaps[i].v) {
        auto prev = snaps[i - 1].v.find(k);
        sum_[k] += val - (prev == snaps[i - 1].v.end() ? 0 : prev->second);
      }
      intervals_.emplace_back(snaps[i - 1].t_ns, snaps[i].t_ns);
    }
  }
  double operator[](const std::string& k) const {
    auto it = sum_.find(k);
    return it == sum_.end() ? 0 : it->second;
  }
  // Whether time t falls in one of the summed intervals.
  bool Covers(int64_t t) const {
    for (const auto& [a, b] : intervals_) {
      if (t >= a && t < b) return true;
    }
    return false;
  }
  double Mean(const std::string& hist) const {
    double n = (*this)[hist + ".count"];
    return n > 0 ? (*this)[hist + ".sum"] / n : 0;
  }
  double Ratio(const std::string& num, const std::string& den) const {
    double d = (*this)[den];
    return d > 0 ? (*this)[num] / d : 0;
  }
  bool empty() const { return intervals_.empty(); }

 private:
  NumberMap sum_;
  std::vector<std::pair<int64_t, int64_t>> intervals_;
};

// Web paths served by the standard servlets, by the metric suffix used for
// them.
const std::vector<std::pair<std::string, std::string>> kServletPaths = {
    {"hle", "/hle"},       {"image", "/image"},    {"view", "/view"},
    {"approx", "/approx"}, {"analyze", "/analyze"}};

// Mean dispatch overhead (dispatch time minus the servlet's span) of the
// traced requests in `d`.
double OverheadUs(const Deltas& d) {
  return d.Ratio("e2e.web.overhead.ns", "e2e.web.overhead.calls") / 1e3;
}

std::string Hostname() {
  char buf[256] = {0};
  ::gethostname(buf, sizeof(buf) - 1);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------

bool RunWorkload(const RunOptions& opts, RunResult* result) {
  Plan plan = PlanFor(opts.workload, opts.smoke);
  const double window_s = opts.seconds;
  const int threads = plan.connections;

  // Set-up, measured several times: each set-up is a fresh server process,
  // timed from its start to the first request it accepts.
  std::vector<double> setups;
  std::vector<Snapshot> snaps;
  ServerProcess server;
  for (int i = 0; i < plan.setups; ++i) {
    ServerProcess trial;
    ServerProcess& s = i + 1 == plan.setups ? server : trial;
    if (!s.Spawn(plan, opts.seed, opts.state_dir)) {
      std::fprintf(stderr, "server %d failed to start\n", i);
      return false;
    }
    HttpConnection probe;
    if (!probe.Connect(s.port()) ||
        probe.Get("/login?user=alice&password=pw-a", "").status != 200) {
      std::fprintf(stderr, "server %d refused its first request\n", i);
      return false;
    }
    NumberMap info;
    std::vector<Snapshot> none;
    if (!ParseReport(s.Command("report"), &info, &none)) {
      std::fprintf(stderr, "server %d sent no report\n", i);
      return false;
    }
    setups.push_back(info["setup_s"]);
    if (&s == &trial && !trial.Stop()) {
      std::fprintf(stderr, "set-up server %d exited uncleanly\n", i);
      return false;
    }
  }

  // The oracle regenerates the dataset itself.
  Truth truth;
  truth.plan = plan;
  truth.seed = opts.seed;
  truth.data = GenerateDataset(plan, opts.seed);
  for (const auto& [hle, unit] : server.hles()) {
    truth.hle_ids.push_back(hle);
  }
  truth.hot_units = HotUnits(plan, opts.seed, truth.data.units.size());
  for (int64_t unit : truth.hot_units) {
    truth.exact_count[unit] = ExactViewBins(truth.Unit(unit), false);
    truth.exact_energy[unit] = ExactViewBins(truth.Unit(unit), true);
  }
  {
    analysis::Image one;
    one.width = one.height = 1;
    one.pixels = {0};
    std::vector<uint8_t> bytes = analysis::RenderImage(one);
    truth.image_magic.assign(bytes.begin(), bytes.begin() + 4);
  }
  Rng order_rng(opts.seed ^ 0x6f72646572ULL);
  truth.hle_order = truth.hle_ids;
  Shuffle(&truth.hle_order, order_rng);
  if (truth.hle_ids.empty()) {
    std::fprintf(stderr, "dataset has no HLEs\n");
    return false;
  }

  Client client(truth, server.port());
  Recorder prep;
  std::vector<std::string> cookies;
  {
    HttpConnection conn;
    conn.Connect(server.port());
    for (int i = 0; i < plan.sessions; ++i) {
      size_t idx;
      HttpReply r = client.Send(prep, conn, kLogin, kPrep,
                                 "/login?user=alice&password=pw-a", "",
                                 NowNs(), &idx);
      client.Mark(prep, idx, r.status == 200 && !r.set_cookie.empty(),
                  "login");
      cookies.push_back(r.set_cookie);
    }
  }

  Zipf hle_z(truth.hle_order.size(), plan.zipf_s);
  Zipf hot_z(std::max<size_t>(truth.hot_units.size(), 1), plan.zipf_s);

  // Each action runs in one of the sessions, chosen uniformly.
  auto action = [&](Recorder& w, HttpConnection& conn, Rng& rng,
                    uint8_t phase, int64_t due) {
    const std::string& cookie = cookies[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(cookies.size()) - 1))];
    if (plan.workload == Workload::kBrowse) {
      client.BrowseAction(w, conn, rng, hle_z, cookie, phase, due);
    } else {
      client.ProgressiveAction(w, conn, rng, hot_z, cookie, phase, due);
    }
  };

  int64_t dup_groups = 0;
  // The exactly-once count starts here, before the probe.
  server.Command("snap");
  // Analysis probe, before the window: one analyst submits fresh
  // parameter sets, pairs of analysts submit one fresh set at the same
  // moment, and the first analyst repeats its sets. It gives both
  // workloads their analysis and PL numbers and is excluded from the
  // window's metrics. Running it first keeps it off the usage_stats rows
  // the window adds. In a traced run it is traced throughout.
  Recorder probe;
  int64_t probe_start = 0, probe_end = 0;
  {
    if (opts.trace) server.Command("trace 1");
    probe_start = NowNs();
    HttpConnection a, b;
    a.Connect(server.port());
    b.Connect(server.port());
    Rng rng(opts.seed ^ 0x70726f6265ULL);
    const int kProbeJobs = opts.smoke ? 4 : 60;
    const int kProbePairs = opts.smoke ? 2 : 10;
    std::vector<std::pair<std::string, int64_t>> jobs;
    for (int i = 0; i < kProbeJobs; ++i) {
      std::string target = client.FreshTarget(rng, 50000 + i);
      int64_t latency = 0;
      bool reused = false;
      int64_t ana = client.Submit(probe, a, target, cookies[0], kProbe,
                                  &latency, &reused);
      probe.probe_fresh_ms.push_back(latency / 1e6);
      ++probe.fresh_submits;
      ++truth.extra_analyses[HleOf(target)];
      jobs.emplace_back(target, ana);
    }
    Recorder second;
    for (int i = 0; i < kProbePairs; ++i) {
      std::string target = client.FreshTarget(rng, 60000 + i);
      int64_t ids[2] = {0, 0};
      std::thread other([&] {
        int64_t latency = 0;
        bool reused = false;
        ids[1] = client.Submit(second, b, target, cookies[1 % cookies.size()],
                               kProbe, &latency, &reused);
      });
      int64_t latency = 0;
      bool reused = false;
      ids[0] = client.Submit(probe, a, target, cookies[0], kProbe, &latency,
                             &reused);
      other.join();
      ++dup_groups;
      ++truth.extra_analyses[HleOf(target)];
      if (ids[0] != ids[1]) {
        probe.samples.back().ok = false;
        probe.errors.push_back("probe duplicate pair " + target);
      }
    }
    probe.Merge(std::move(second));
    for (const auto& [target, ana] : jobs) {
      int64_t latency = 0;
      bool reused = false;
      int64_t again = client.Submit(probe, a, target, cookies[0], kProbe,
                                    &latency, &reused);
      probe.probe_reuse_us.push_back(latency / 1e3);
      if (again != ana || !reused) {
        probe.samples.back().ok = false;
        probe.errors.push_back("probe repeat " + target);
      }
    }
    probe_end = NowNs();
    if (opts.trace) server.Command("trace 0");
  }

  std::vector<Recorder> recorders(static_cast<size_t>(threads));
  std::vector<HttpConnection> conns(static_cast<size_t>(threads));
  for (HttpConnection& c : conns) c.Connect(server.port());

  const std::string slice_ms = "100";
  server.Command("snap");
  if (opts.trace) server.Command("slices " + slice_ms);
  const int64_t window_start = NowNs();
  const double open_s = window_s * plan.open_share;
  const double late_s = window_s * plan.late_share;
  const int64_t open_end = window_start + static_cast<int64_t>(open_s * 1e9);
  const int64_t closed_until =
      window_start + static_cast<int64_t>((window_s - late_s) * 1e9);

  // Open loop: Poisson arrivals at a fixed rate from `start` for `seconds`,
  // served by a pool of `threads` connections; every request is timed from
  // its due time. Each action's choices come from its own seeded stream,
  // so the request mix does not depend on thread scheduling.
  auto open_loop = [&](int64_t start, double seconds, uint8_t phase,
                       uint64_t stream) {
    std::vector<int64_t> due;
    Rng arrivals(opts.seed ^ 0x6f70656eULL ^ stream);
    for (double t = arrivals.Exponential(1.0 / plan.open_rate_rps);
         t < seconds; t += arrivals.Exponential(1.0 / plan.open_rate_rps)) {
      due.push_back(start + static_cast<int64_t>(t * 1e9));
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Recorder& w = recorders[static_cast<size_t>(t)];
        for (size_t i = next++; i < due.size(); i = next++) {
          Rng rng(opts.seed * 1000003 + (stream << 32) + i);
          int64_t at = due[i];
          int64_t now = NowNs();
          if (at - now > 200000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(at - now - 150000));
          }
          while (NowNs() < at) std::this_thread::yield();
          w.late_us.push_back((NowNs() - at) / 1e3);
          action(w, conns[static_cast<size_t>(t)], rng, phase, at);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    if (end > NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(end - NowNs()));
    }
  };

  open_loop(window_start, open_s, kOpen, 0);
  if (!opts.trace) server.Command("snap");
  // Closed loop: every connection sends its next request as soon as the
  // previous one completed.
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Recorder& w = recorders[static_cast<size_t>(t)];
      Rng rng(opts.seed * 7919 + static_cast<uint64_t>(t) + 1);
      while (NowNs() < closed_until) {
        action(w, conns[static_cast<size_t>(t)], rng, kClosed, NowNs());
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const int64_t closed_end = NowNs();
  // The open loop again, at the same rate, on the history the closed loop
  // left behind: its dispatch overhead against the first open-loop tenth
  // shows how per-request cost grows with the usage_stats table.
  open_loop(closed_end, late_s, kLate, 1);
  const int64_t measured_end = NowNs();
  if (opts.trace) server.Command("endslices");
  server.Command("snap");
  std::string report = server.Command("report");
  for (HttpConnection& c : conns) c.Close();
  bool clean_exit = server.Stop();

  NumberMap info;
  if (!ParseReport(report, &info, &snaps) || snaps.size() < 3) {
    std::fprintf(stderr, "server report unreadable\n");
    return false;
  }

  Recorder all;
  all.Merge(std::move(prep));
  for (Recorder& r : recorders) all.Merge(std::move(r));
  all.Merge(std::move(probe));

  // --- correctness and counts ----------------------------------------------
  int64_t attempted = static_cast<int64_t>(all.samples.size());
  int64_t failed = 0;
  for (const Sample& s : all.samples) failed += s.ok ? 0 : 1;
  const Snapshot& first = snaps.front();
  const Snapshot& last = snaps.back();
  double executions =
      last.v.at("e2e.exec.executions") - first.v.at("e2e.exec.executions");
  double over_once = last.v.at("e2e.exec.keys_over_once") -
                     first.v.at("e2e.exec.keys_over_once");
  double fresh_sets = static_cast<double>(all.fresh_submits + dup_groups);
  // Exactly-once: every fresh set and every duplicate group ran its
  // routine once; repeats ran nothing.
  if (executions != fresh_sets || over_once != 0) {
    ++failed;
    all.errors.push_back("routine executions " + std::to_string(executions) +
                         " for " + std::to_string(fresh_sets) +
                         " fresh parameter sets");
  }
  if (!clean_exit) {
    ++failed;
    all.errors.push_back("server exited uncleanly");
  }
  for (const std::string& e : all.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  result->attempted = attempted;
  result->failed = failed;
  result->correct = failed == 0;

  // --- client latency series ------------------------------------------------
  // Latencies of one phase, from the due time.
  auto latencies = [&](uint8_t phase) {
    std::vector<double> out;
    for (const Sample& s : all.samples) {
      if (s.phase == phase) out.push_back((s.done_ns - s.due_ns) / 1e3);
    }
    return out;
  };
  // Open-loop latencies by request type.
  std::map<uint8_t, std::vector<double>> open_by_type;
  for (const Sample& s : all.samples) {
    if (s.phase == kOpen) {
      open_by_type[s.type].push_back((s.done_ns - s.due_ns) / 1e3);
    }
  }
  std::vector<std::vector<double>> open_groups;
  for (const auto& [type, v] : open_by_type) open_groups.push_back(v);
  int64_t closed_requests = 0;
  for (const Sample& s : all.samples) closed_requests += s.phase == kClosed;
  double closed_s = (closed_end - open_end) / 1e9;

  std::vector<std::string> tails;  // which percentile each tail used
  auto tail = [&](const std::string& name, const std::vector<double>& v,
                  double percentile) {
    Tail t = TailPercentile(v, percentile);
    tails.push_back("\"" + name + "\":{\"percentile\":" +
                    JsonNumber(t.percentile) +
                    ",\"samples\":" + std::to_string(t.samples) +
                    ",\"beyond\":" + std::to_string(t.beyond) + "}");
    return t.value;
  };

  NumberMap& m = result->metrics;
  std::string units;
  auto put = [&](const std::string& name, double value,
                 const std::string& unit) {
    m[name] = value;
    result->units[name] = unit;
    units += std::string(units.empty() ? "" : ",") + "\"" + name + "\":\"" +
             unit + "\"";
  };

  if (!opts.trace) {
    put("setup_s", Median(setups), "s");
    // Every request type's median, weighted by its share of the requests:
    // a page view's page and its image take different times, and the
    // pooled median would sit between the two.
    put("p50_us", MixMedian(open_groups), "us");

    put("throughput_rps", closed_requests / std::max(closed_s, 1e-9), "req/s");
    put("first_paint_p50_us", Percentile(all.first_paint_us, 50), "us");

    put("full_view_p50_us", Percentile(all.full_view_us, 50), "us");
    put("rss_mb", last.v.at("e2e.rss_kb") / 1024.0, "MiB");
    // Storage at the end of the fixed-rate phase, so the number of
    // requests logged so far does not depend on the host's speed.
    const Snapshot* at = &last;
    for (const Snapshot& snap : snaps) {
      if (snap.t_ns >= open_end - Deltas::kEdgeNs) {
        at = &snap;
        break;
      }
    }
    put("storage_bytes_per_input_byte",
        (at->v.at("e2e.storage.archive_bytes") +
         at->v.at("e2e.storage.wal_bytes")) /
            std::max(info["input_bytes"], 1.0),
        "ratio");
  } else {
    // Layer numbers: traced slices of the window only.
    Deltas d(snaps, window_start, measured_end, true);
    // PL, analysis and commit numbers: the analysis probe.
    Deltas pd(snaps, probe_start, probe_end, true);
    double requests = d["e2e.web.dispatch.calls"];
    auto per_req = [&](double x) { return requests > 0 ? x / requests : 0; };
    std::vector<double> all_client;
    for (const Sample& s : all.samples) {
      if ((s.phase == kOpen || s.phase == kClosed || s.phase == kLate) &&
          d.Covers(s.send_ns)) {
        all_client.push_back((s.done_ns - s.send_ns) / 1e3);
      }
    }
    double client_mean = Mean(all_client);
    double dispatch_us = d.Ratio("e2e.web.dispatch.ns",
                                 "e2e.web.dispatch.calls") / 1e3;
    double overhead = OverheadUs(d);
    put("net.transport_us", client_mean - dispatch_us, "us");
    put("net.loop_lag_us", d.Mean("net.loop_lag_us"), "us");
    put("net.backpressure_stalls", d["net.backpressure_stalls"], "count");
    put("web.dispatch_us", dispatch_us, "us");
    for (const auto& [name, path] : kServletPaths) {
      put("web.servlet_us." + name, d.Mean("web.latency_us" + path), "us");
    }
    put("web.overhead_us", overhead, "us");
    // usage_stats growth: overhead in the closing open-loop phase against
    // the window's first stretch of the same length, at the same rate.
    int64_t late_ns = static_cast<int64_t>(late_s * 1e9);
    Deltas early(snaps, window_start, window_start + late_ns, true);
    Deltas late(snaps, closed_end, measured_end, true);
    double early_oh = OverheadUs(early);
    put("web.overhead_late_over_early",
        early_oh > 0 ? OverheadUs(late) / early_oh : 0, "ratio");
    int64_t view_requests = 0;
    for (const Sample& s : all.samples) {
      view_requests += s.type == kView && d.Covers(s.send_ns);
    }
    put("web.view_builds_per_view",
        view_requests > 0 ? d["web.view.builds"] / view_requests : 0,
        "ratio");
    put("dm.session_get_us", d.Mean("dm.sessions.get_us"), "us");
    double session_gets = d["dm.sessions.hits"] + d["dm.sessions.creates"];
    put("dm.session_hit_ratio",
        session_gets > 0 ? d["dm.sessions.hits"] / session_gets : 0, "ratio");
    put("db.query_us", d.Mean("db.query_us"), "us");
    put("db.queries_per_request", per_req(d["db.stats.queries"]), "count");
    // Per browse page view (page plus its images), the unit of the paper's
    // Fig. 4 request profile of 7 queries.
    int64_t page_views = 0;
    for (const Sample& s : all.samples) {
      page_views += s.type == kHle && d.Covers(s.send_ns);
    }
    put("db.queries_per_page_view",
        page_views > 0 ? d["db.stats.queries"] / page_views : 0, "count");
    put("db.update_us", d.Mean("db.update_us"), "us");
    put("db.updates_per_request", per_req(d["db.stats.updates"]), "count");
    put("db.rows_examined_per_query",
        d.Ratio("db.stats.rows_examined", "db.stats.queries"), "count");
    put("db.matched_over_examined",
        d.Ratio("db.stats.rows_matched", "db.stats.rows_examined"), "ratio");
    put("db.full_scans_per_request", per_req(d["db.stats.full_scans"]),
        "count");
    put("db.pool_wait_us", d.Mean("db.pool_wait_us"), "us");
    put("wal.fsync_us", d.Mean("wal.fsync_us"), "us");
    put("wal.fsyncs_per_update", d.Ratio("wal.fsyncs", "db.stats.updates"),
        "ratio");
    put("wal.group_size", d.Mean("wal.group_size"), "count");
    put("wal.bytes_per_request", per_req(d["wal.append_bytes"]), "B");
    put("namemap.resolve_us", d.Mean("namemap.resolve_us"), "us");
    double lookups =
        d["name_mapper.cache_hits"] + d["name_mapper.cache_misses"];
    put("namemap.cache_hit_ratio",
        lookups > 0 ? d["name_mapper.cache_hits"] / lookups : 0, "ratio");
    put("namemap.db_queries_per_resolve",
        d.Ratio("namemap.db_queries", "namemap.resolutions"), "ratio");
    put("archive.read_us",
        d.Ratio("e2e.archive.read.ns", "e2e.archive.read.calls") / 1e3, "us");
    put("archive.reads_per_request", per_req(d["e2e.archive.read.calls"]),
        "count");
    put("archive.read_bytes_per_request",
        per_req(d["e2e.archive.read.bytes"]), "B");
    put("archive.write_us",
        pd.Ratio("e2e.archive.write.ns", "e2e.archive.write.calls") / 1e3,
        "us");
    put("archive.write_bytes_per_commit",
        pd.Ratio("e2e.archive.write.bytes", "e2e.pl.commit.calls"), "B");
    put("pl.estimate_us", pd.Mean("pl.estimate_us"), "us");
    put("pl.execute_us", pd.Mean("pl.execute_us"), "us");
    put("pl.deliver_us", pd.Mean("pl.deliver_us"), "us");
    put("pl.commit_us",
        pd.Ratio("e2e.pl.commit.ns", "e2e.pl.commit.calls") / 1e3, "us");
    double depth_max = 0;
    for (size_t i = 1; i < snaps.size(); ++i) {
      if (snaps[i].traced && snaps[i].t_ns >= probe_start &&
          snaps[i].t_ns <= probe_end + Deltas::kEdgeNs) {
        depth_max = std::max(depth_max, snaps[i].v.at("e2e.pl.queue_depth_max"));
      }
    }
    put("pl.queue_depth_max", depth_max, "count");
    put("pl.invoke_retries", pd["pl.invoke.retries"], "count");
    double admits = d["product_cache.hits"] + d["product_cache.misses"] +
                    d["product_cache.coalesced"];
    put("product_cache.hit_ratio",
        admits > 0 ? d["product_cache.hits"] / admits : 0, "ratio");
    put("product_cache.coalesced_per_submit",
        pd.Ratio("product_cache.coalesced", "pl.requests.submitted"), "ratio");
    put("product_cache.executions_per_key",
        pd.Ratio("e2e.exec.executions", "e2e.exec.keys"), "ratio");
    put("product_cache.evictions", d["product_cache.evictions"], "count");
    double routine_ns = 0;
    for (const char* r : {"lightcurve", "histogram", "spectrogram"}) {
      std::string p = std::string("e2e.routine.") + r;
      routine_ns += pd[p + ".ns"];
      put(std::string("analysis.routine_us.") + r,
          pd.Ratio(p + ".ns", p + ".calls") / 1e3, "us");
    }
    put("analysis.executions_per_fresh_submit",
        fresh_sets > 0 ? executions / fresh_sets : 0, "ratio");
    put("client.decode_us", Mean(all.decode_us), "us");
    put("view.bytes_first_paint",
        all.views > 0 ? static_cast<double>(all.first_paint_bytes) /
                            static_cast<double>(all.views)
                      : 0,
        "B");
    put("view.bytes_full",
        all.views > 0 ? static_cast<double>(all.full_bytes) /
                            static_cast<double>(all.views)
                      : 0,
        "B");
    put("approx.bound_violations", static_cast<double>(all.bound_violations),
        "count");
    put("ingest.unit_ms", info["ingest_s"] * 1e3 / std::max(info["units"], 1.0),
        "ms");
    put("ingest.photons_per_s",
        info["photons"] / std::max(info["ingest_s"], 1e-9), "1/s");
    put("storage.archive_bytes", last.v.at("e2e.storage.archive_bytes"), "B");
    put("storage.wal_bytes", last.v.at("e2e.storage.wal_bytes"), "B");
    put("gen.late_p99_us", tail("gen.late_p99_us", all.late_us, 99), "us");
    // Analysis turnaround: the probe.
    put("analysis.fresh_p50_ms", Percentile(all.probe_fresh_ms, 50), "ms");
    put("analysis.fresh_p99_ms",
        tail("analysis.fresh_p99_ms", all.probe_fresh_ms, 99), "ms");
    // Latency tails: set by the shared host's fsync and CPU stalls, too
    // unsteady between runs to bound, so reported here without a bound.
    std::vector<double> lat = latencies(kOpen);
    put("tail.p95_us", tail("tail.p95_us", lat, 95), "us");
    put("tail.p99_us", tail("tail.p99_us", lat, 99), "us");
    put("tail.first_paint_p95_us",
        tail("tail.first_paint_p95_us", all.first_paint_us, 95), "us");
    put("tail.first_paint_p99_us",
        tail("tail.first_paint_p99_us", all.first_paint_us, 99), "us");
    put("analysis.reuse_p50_us", Percentile(all.probe_reuse_us, 50), "us");
    put("error_rate",
        attempted > 0 ? static_cast<double>(failed) / attempted : 0,
        "fraction");
    put("archive.distinct_items_touched", static_cast<double>(all.items.size()),
        "count");

    // Attribution of the mean client latency (send to reply) to disjoint
    // layer self-times, per request, over traced slices. Nesting:
    //   client = net + web.dispatch
    //   web.dispatch = web.overhead + servlet
    //   servlet ⊃ dm.session_get, db SELECTs, name-mapper self time,
    //             archive reads, pl phases (⊃ routine, commit), rest
    // Name-mapper self time excludes its own SELECTs, which db counts.
    double q_mean = d.Mean("db.query_us");
    double attr_net = client_mean - dispatch_us;
    double attr_web = overhead;
    double attr_dm = per_req(d["dm.sessions.get_us.sum"]);
    double attr_db = per_req(d["db.query_us.sum"]);
    double attr_nm = per_req(std::max(
        0.0, d["namemap.resolve_us.sum"] - d["namemap.db_queries"] * q_mean));
    double attr_archive = per_req(d["e2e.archive.read.ns"] / 1e3);
    double attr_pl = per_req(d["pl.estimate_us.sum"] + d["pl.execute_us.sum"] +
                             d["pl.deliver_us.sum"] +
                             d["e2e.pl.commit.ns"] / 1e3);
    double attributed = attr_net + attr_web + attr_dm + attr_db + attr_nm +
                        attr_archive + attr_pl;
    put("attr.total_us", client_mean, "us");
    put("attr.net_us", attr_net, "us");
    put("attr.web_us", attr_web, "us");
    put("attr.dm_us", attr_dm, "us");
    put("attr.db_us", attr_db, "us");
    put("attr.namemap_us", attr_nm, "us");
    put("attr.archive_us", attr_archive, "us");
    put("attr.pl_us", attr_pl, "us");
    put("attr.analysis_us", per_req(routine_ns / 1e3), "us");
    put("attr.unattributed_us", client_mean - attributed, "us");
    put("attr.unattributed_share",
        client_mean > 0 ? (client_mean - attributed) / client_mean : 0,
        "ratio");
    // Tracing overhead: latency-phase p50 in traced slices over untraced.
    std::vector<double> traced_lat, untraced_lat;
    for (const Sample& s : all.samples) {
      if (s.phase != kOpen) continue;
      (d.Covers(s.send_ns) ? traced_lat : untraced_lat)
          .push_back((s.done_ns - s.due_ns) / 1e3);
    }
    double untraced_p50 = Percentile(untraced_lat, 50);
    put("trace.overhead_p50_ratio",
        untraced_p50 > 0 ? Percentile(traced_lat, 50) / untraced_p50 : 0,
        "ratio");
  }
  result->units_json = "{" + units + "}";

  // --- metadata -------------------------------------------------------------
  std::string meta = "{";
  meta += "\"workload\":\"" + std::string(WorkloadName(opts.workload)) + "\"";
  meta += ",\"seed\":" + std::to_string(opts.seed);
  meta += ",\"commit\":\"" + JsonEscape(opts.commit) + "\"";
  meta += ",\"seconds\":" + JsonNumber(window_s);
  meta += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
  meta += ",\"smoke\":" + std::string(opts.smoke ? "true" : "false");
  meta += ",\"cores\":" + std::to_string(std::thread::hardware_concurrency());
  meta += ",\"host\":\"" + JsonEscape(Hostname()) + "\"";
#if defined(__clang__)
  meta += ",\"compiler\":\"clang " __clang_version__ "\"";
#elif defined(__GNUC__)
  meta += ",\"compiler\":\"gcc " __VERSION__ "\"";
#endif
#ifdef HEDC_E2E_BUILD_TYPE
  meta += ",\"build_type\":\"" HEDC_E2E_BUILD_TYPE "\"";
#endif
  meta += ",\"client\":{\"threads\":" + std::to_string(threads) +
          ",\"connections\":" + std::to_string(threads) +
          ",\"sessions\":" + std::to_string(cookies.size()) + "}";
  meta += ",\"open_loop\":{\"actions_per_s\":" +
          JsonNumber(plan.open_rate_rps) + ",\"seconds\":" + JsonNumber(open_s) +
          ",\"closing_seconds\":" + JsonNumber(late_s) + "}";
  if (all.page_views > 0) {
    // Against the paper's Fig. 4 request: 12 KB HTML and 35 KB images.
    double n = static_cast<double>(all.page_views);
    meta += ",\"page_view\":{\"html_bytes\":" + JsonNumber(all.html_bytes / n) +
            ",\"image_bytes\":" + JsonNumber(all.image_bytes / n) + "}";
  }
  meta += ",\"flush_policy\":\"WAL in the checkout's build directory; every "
          "mutation group-committed with fflush+fsync, as the program does\"";
  meta += ",\"clock\":\"virtual clock for modeled costs; all timings are "
          "steady-clock wall time\"";
  meta += ",\"dataset\":{\"units\":" + JsonNumber(info["units"]) +
          ",\"hles\":" + JsonNumber(info["hles"]) +
          ",\"anas_at_setup\":" + JsonNumber(info["anas"]) +
          ",\"photons\":" + JsonNumber(info["photons"]) +
          ",\"input_bytes\":" + JsonNumber(info["input_bytes"]) +
          ",\"hot_units\":" + std::to_string(truth.hot_units.size()) +
          ",\"distinct_items_touched\":" + std::to_string(all.items.size()) +
          ",\"name_mapper_cache_entries\":1024}";
  meta += ",\"setup_runs_s\":[";
  for (size_t i = 0; i < setups.size(); ++i) {
    meta += (i ? "," : "") + JsonNumber(setups[i]);
  }
  meta += "]";
  meta += ",\"analysis_probe\":{\"duplicate_groups\":" + std::to_string(dup_groups) +
          ",\"routine_executions\":" + JsonNumber(executions) +
          ",\"fresh_parameter_sets\":" + JsonNumber(fresh_sets) + "}";
  meta += ",\"tails\":{";
  for (size_t i = 0; i < tails.size(); ++i) meta += (i ? "," : "") + tails[i];
  meta += "}";
  {
    std::vector<double> lat = latencies(kOpen);
    meta += ",\"tail_latency_us\":{";
    for (double p : {90.0, 95.0, 98.0, 99.0}) {
      meta += (p == 90.0 ? "" : ",") + std::string("\"p") +
              std::to_string(static_cast<int>(p)) + "\":" +
              JsonNumber(Percentile(lat, p)) + ",\"fp" +
              std::to_string(static_cast<int>(p)) + "\":" +
              JsonNumber(Percentile(all.first_paint_us, p));
    }
    meta += "}";
  }
  {
    static const char* const kTypeNames[] = {"hle",     "image", "view",
                                             "approx",  "analyze", "login"};
    meta += ",\"open_p50_by_type_us\":{";
    bool first_type = true;
    for (const auto& [type, v] : open_by_type) {
      meta += std::string(first_type ? "" : ",") + "\"" + kTypeNames[type] +
              "\":{\"p50\":" + JsonNumber(Percentile(v, 50)) +
              ",\"samples\":" + std::to_string(v.size()) + "}";
      first_type = false;
    }
    meta += ",\"pooled_p50\":" + JsonNumber(Percentile(latencies(kOpen), 50)) +
            "}";
  }
  meta += ",\"errors\":" + std::to_string(failed);
  meta += "}";
  result->meta_json = meta;
  return true;
}

}  // namespace hedc::e2e
