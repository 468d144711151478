#include "server.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "analysis/routine.h"
#include "core/clock.h"
#include "core/metrics.h"
#include "dm/dm.h"
#include "dm/hedc_schema.h"
#include "dm/process_layer.h"
#include "pl/commit.h"
#include "pl/frontend.h"
#include "pl/product_cache.h"
#include "web/http_tcp.h"
#include "web/web_server.h"

namespace hedc::e2e {
namespace {

// Tracing switch for the benchmark's own timers. Off, each probe costs one
// relaxed load; the program's own counters run either way.
std::atomic<bool> g_tracing{false};

// A call counter plus a nanosecond sum, registered in the program's
// metrics registry so that snapshots pick them up with everything else.
struct CallTimer {
  explicit CallTimer(const std::string& prefix)
      : calls(MetricsRegistry::Default()->GetCounter(prefix + ".calls")),
        ns(MetricsRegistry::Default()->GetCounter(prefix + ".ns")) {}
  void Record(int64_t start_ns) {
    calls->Add();
    ns->Add(NowNs() - start_ns);
  }
  Counter* calls;
  Counter* ns;
};

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

// archive layer: times reads and writes of the backend the name mapper
// resolves to.
class TimedArchive : public archive::Archive {
 public:
  explicit TimedArchive(std::unique_ptr<archive::Archive> inner)
      : inner_(std::move(inner)),
        read_("e2e.archive.read"),
        write_("e2e.archive.write"),
        read_bytes_(MetricsRegistry::Default()->GetCounter(
            "e2e.archive.read.bytes")),
        write_bytes_(MetricsRegistry::Default()->GetCounter(
            "e2e.archive.write.bytes")) {}

  archive::ArchiveType type() const override { return inner_->type(); }
  Status Write(const std::string& path,
               const std::vector<uint8_t>& data) override {
    if (!Tracing()) return inner_->Write(path, data);
    int64_t start = NowNs();
    Status s = inner_->Write(path, data);
    write_.Record(start);
    write_bytes_->Add(static_cast<int64_t>(data.size()));
    return s;
  }
  Result<std::vector<uint8_t>> Read(const std::string& path) override {
    if (!Tracing()) return inner_->Read(path);
    int64_t start = NowNs();
    Result<std::vector<uint8_t>> r = inner_->Read(path);
    read_.Record(start);
    if (r.ok()) read_bytes_->Add(static_cast<int64_t>(r.value().size()));
    return r;
  }
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  Result<uint64_t> SizeOf(const std::string& path) override {
    return inner_->SizeOf(path);
  }
  Result<size_t> ReadRange(const std::string& path, uint64_t offset,
                           uint8_t* out, size_t len) override {
    if (!Tracing()) return inner_->ReadRange(path, offset, out, len);
    int64_t start = NowNs();
    Result<size_t> r = inner_->ReadRange(path, offset, out, len);
    read_.Record(start);
    if (r.ok()) read_bytes_->Add(static_cast<int64_t>(r.value()));
    return r;
  }
  uint64_t BytesStored() const override { return inner_->BytesStored(); }

 private:
  std::unique_ptr<archive::Archive> inner_;
  CallTimer read_;
  CallTimer write_;
  Counter* read_bytes_;
  Counter* write_bytes_;
};

// Executions per product key (routine + canonical parameters). Always on:
// the client's exactly-once oracle reads it on every run.
class ExecutionLedger {
 public:
  void Record(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    int n = ++counts_[key];
    executions_->Add();
    if (n == 1) keys_->Add();
    if (n == 2) keys_over_once_->Add();
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, int> counts_;
  Counter* executions_ =
      MetricsRegistry::Default()->GetCounter("e2e.exec.executions");
  Counter* keys_ = MetricsRegistry::Default()->GetCounter("e2e.exec.keys");
  Counter* keys_over_once_ =
      MetricsRegistry::Default()->GetCounter("e2e.exec.keys_over_once");
};

// analysis layer: one decorator per registered routine.
class TimedRoutine : public analysis::AnalysisRoutine {
 public:
  TimedRoutine(const analysis::AnalysisRoutine* inner,
               ExecutionLedger* ledger)
      : inner_(inner),
        ledger_(ledger),
        timer_("e2e.routine." + inner->name()) {}

  std::string name() const override { return inner_->name(); }
  Result<analysis::AnalysisProduct> Run(
      const rhessi::PhotonList& photons,
      const analysis::AnalysisParams& params) const override {
    ledger_->Record(inner_->name() + "|" + params.Canonical());
    if (!Tracing()) return inner_->Run(photons, params);
    int64_t start = NowNs();
    Result<analysis::AnalysisProduct> r = inner_->Run(photons, params);
    timer_.Record(start);
    return r;
  }
  double EstimateWorkUnits(size_t photon_count,
                           const analysis::AnalysisParams& params)
      const override {
    return inner_->EstimateWorkUnits(photon_count, params);
  }

 private:
  const analysis::AnalysisRoutine* inner_;
  ExecutionLedger* ledger_;
  mutable CallTimer timer_;
};

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

bool WriteLine(int fd, const std::string& line) {
  std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, std::string* line) {
  line->clear();
  char c;
  while (true) {
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

class Server {
 public:
  explicit Server(const ServerArgs& args)
      : args_(args),
        wal_path_(args.state_dir + "/wal-" + std::to_string(::getpid()) +
                  ".log"),
        dispatch_("e2e.web.dispatch"),
        overhead_("e2e.web.overhead") {}

  void RemoveWal() { std::remove(wal_path_.c_str()); }

  Status Setup() {
    start_ns_ = NowNs();
    const Plan& plan = args_.plan;
    Dataset dataset = GenerateDataset(plan, args_.seed);
    input_bytes_ = dataset.input_bytes;
    photons_ = dataset.photons;
    units_ = dataset.units.size();

    // Resource tier: metadata DB (WAL open before the schema exists, so
    // every mutation is durable), a disk archive, name mapping.
    std::remove(wal_path_.c_str());
    HEDC_RETURN_IF_ERROR(db_.OpenWal(wal_path_));
    dm::CreateFullSchema(&db_);
    auto disk = std::make_unique<TimedArchive>(
        std::make_unique<archive::DiskArchive>());
    archive_ = disk.get();
    archives_.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                       std::move(disk));
    Config mapper_config;
    mapper_config.Set("root.filename", "/hedc");
    mapper_ = std::make_unique<archive::NameMapper>(&db_, mapper_config);
    mapper_->Init();
    mapper_->RegisterArchive(1, "disk", "raid1");

    // Application logic tier.
    dm_ = std::make_unique<dm::DataManager>("dm0", &db_, &archives_,
                                            mapper_.get(), &clock_,
                                            dm::DataManager::Options{});
    process_ = std::make_unique<dm::ProcessLayer>(dm_.get(), 1);
    dm::UserProfile analyst;
    analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
    HEDC_RETURN_IF_ERROR(
        dm_->users().CreateUser("alice", "pw-a", analyst).status());
    dm::UserProfile import_user;
    import_user.is_super = true;
    HEDC_RETURN_IF_ERROR(
        dm_->users().CreateUser("import", "pw-i", import_user).status());
    HEDC_ASSIGN_OR_RETURN(dm::UserProfile importer,
                          dm_->users().Authenticate("import", "pw-i"));
    HEDC_ASSIGN_OR_RETURN(
        import_session_,
        dm_->sessions().GetOrCreate(importer, "127.0.0.1", "ck-import",
                                    dm::SessionKind::kHle));

    // rhessi: ingest through the data-load workflow, timed per unit.
    int64_t ingest_start = NowNs();
    for (size_t i = 0; i < dataset.packed.size(); ++i) {
      HEDC_ASSIGN_OR_RETURN(
          dm::DataLoadReport report,
          process_->LoadRawUnit(import_session_, dataset.packed[i]));
      for (int64_t hle : report.hle_ids) {
        hles_.emplace_back(hle, report.unit_id);
      }
    }
    ingest_ns_ = NowNs() - ingest_start;

    // Processing logic tier: two interpreters running decorated real
    // routines, the derived-product cache, the 4-phase frontend.
    base_routines_ = analysis::CreateStandardRegistry();
    for (const std::string& name : base_routines_->Names()) {
      routines_.Register(std::make_unique<TimedRoutine>(
          base_routines_->Get(name), &ledger_));
    }
    manager_ = std::make_unique<pl::IdlServerManager>(
        "host0", pl::IdlServerManager::Options{});
    for (const char* name : {"idl0", "idl1"}) {
      HEDC_RETURN_IF_ERROR(manager_->AddServer(std::make_unique<pl::IdlServer>(
          name, &routines_, &clock_, pl::IdlServer::Options{})));
    }
    directory_.Register("host0", manager_.get(), "local");
    product_cache_ = std::make_unique<pl::ProductCache>(
        dm_.get(), pl::ProductCache::Options::FromConfig(Config()));
    HEDC_RETURN_IF_ERROR(product_cache_->LoadFromDm());
    process_->SetDerivedProductInvalidator(
        [this](int64_t unit) { product_cache_->InvalidateUnit(unit); });
    process_->SetAnaPurgeListener(
        [this](int64_t ana) { product_cache_->InvalidateAna(ana); });
    pl::Frontend::Committer commit =
        pl::MakeDmCommitter(dm_.get(), import_session_, 1);
    auto commit_timer = std::make_shared<CallTimer>("e2e.pl.commit");
    frontend_ = std::make_unique<pl::Frontend>(
        &directory_, &predictor_, &clock_,
        [commit, commit_timer](const pl::ProcessingRequest& request,
                               const analysis::AnalysisProduct& product) {
          if (!Tracing()) return commit(request, product);
          int64_t start = NowNs();
          Result<int64_t> r = commit(request, product);
          commit_timer->Record(start);
          return r;
        },
        pl::Frontend::Options{});
    frontend_->set_product_cache(product_cache_.get());

    // Presentation tier.
    web_ = std::make_unique<web::WebServer>(dm_.get(), frontend_.get());
    web_->RegisterStandardServlets();
    web_->set_delivery_options(
        web::WebServer::DeliveryOptions::FromConfig(Config()));

    HEDC_RETURN_IF_ERROR(WarmUp());

    http_ = std::make_unique<web::HttpTcpServer>(
        [this](const web::HttpRequest& request) { return Handle(request); },
        MetricsRegistry::Default(),
        web::HttpTcpServer::Options::FromConfig(Config()));
    return http_->Start(0);
  }

  // Serves commands until "quit" or EOF.
  int Serve() {
    std::string hles = "HLES";
    for (const auto& [hle, unit] : hles_) {
      hles += " " + std::to_string(hle) + ":" + std::to_string(unit);
    }
    if (!WriteLine(args_.reply_fd, "READY " + std::to_string(http_->port())) ||
        !WriteLine(args_.reply_fd, hles)) {
      return 3;
    }
    serving_ = true;
    std::thread sampler([this] { SampleQueueDepth(); });
    std::string command;
    while (ReadLine(args_.command_fd, &command)) {
      if (command == "snap") {
        Snap();
        WriteLine(args_.reply_fd, "ok");
      } else if (command.rfind("slices ", 0) == 0) {
        StartSlices(std::atoi(command.c_str() + 7));
        WriteLine(args_.reply_fd, "ok");
      } else if (command == "endslices") {
        StopSlices();
        WriteLine(args_.reply_fd, "ok");
      } else if (command == "trace 1" || command == "trace 0") {
        Snap();
        g_tracing.store(command == "trace 1");
        WriteLine(args_.reply_fd, "ok");
      } else if (command == "report") {
        WriteLine(args_.reply_fd, Report());
      } else if (command == "quit") {
        break;
      }
    }
    StopSlices();
    serving_ = false;
    sampler.join();
    http_->Stop();
    return 0;
  }

 private:
  web::HttpResponse Handle(const web::HttpRequest& request) {
    if (first_request_ns_.load() == 0) {
      int64_t expected = 0;
      first_request_ns_.compare_exchange_strong(expected, NowNs());
    }
    if (!Tracing()) return web_->Dispatch(request);
    int64_t start = NowNs();
    web::HttpResponse response = web_->Dispatch(request);
    int64_t elapsed = NowNs() - start;
    dispatch_.calls->Add();
    dispatch_.ns->Add(elapsed);
    // Dispatch overhead of this request: its dispatch time minus the
    // servlet span Dispatch recorded around the servlet.
    int64_t servlet_us = 0;
    if (TakeServletSpan(request.trace_id, &servlet_us)) {
      overhead_.calls->Add();
      overhead_.ns->Add(elapsed - servlet_us * 1000);
    }
    return response;
  }

  // Finds the "web" span of `trace_id` in the program's trace ring.
  // Concurrent handlers drain each other's spans, so drained spans wait
  // in `servlet_spans_` until their own handler asks.
  bool TakeServletSpan(int64_t trace_id, int64_t* us) {
    std::lock_guard<std::mutex> lock(span_mu_);
    for (const TraceEvent& e : MetricsRegistry::Default()->traces().Drain()) {
      if (e.component == "web") {
        servlet_spans_[e.trace_id] = e.end_us - e.start_us;
      }
    }
    auto it = servlet_spans_.find(trace_id);
    if (it == servlet_spans_.end()) return false;
    *us = it->second;
    servlet_spans_.erase(it);
    // Spans of untraced requests are never asked for.
    if (servlet_spans_.size() > 100000) servlet_spans_.clear();
    return true;
  }

  // pl layer: samples the queue-depth gauge while tracing is on.
  void SampleQueueDepth() {
    Gauge* depth = MetricsRegistry::Default()->GetGauge("pl.queue_depth");
    while (serving_) {
      if (!Tracing()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      int64_t d = depth->Value();
      int64_t seen = queue_depth_max_.load();
      while (d > seen && !queue_depth_max_.compare_exchange_weak(seen, d)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  // Warm-up, part of set-up: browse commits the standard analyses every
  // HLE page shows; progressive fills the product cache with its hot
  // views.
  Status WarmUp() {
    web::HttpResponse login = web_->Dispatch(
        web::MakeRequest("/login?user=alice&password=pw-a"));
    std::string cookie = login.set_cookies["hedc_session"];
    if (cookie.empty()) return Status::Internal("warm-up login failed");
    const Plan& plan = args_.plan;
    std::vector<std::string> urls;
    if (plan.seed_analyses) {
      for (const auto& [hle, unit] : hles_) {
        for (const std::string& routine : kStandardAnalyses) {
          urls.push_back("/analyze?hle_id=" + std::to_string(hle) +
                         "&routine=" + routine);
        }
      }
    }
    for (int64_t unit : HotUnits(plan, args_.seed, units_)) {
      std::string u = std::to_string(unit);
      for (const char* kind : {"count", "energy"}) {
        for (int64_t level : kViewLadder) {
          urls.push_back("/view?unit=" + u + "&kind=" + kind +
                         "&resolution=" + std::to_string(level));
        }
      }
      urls.push_back("/approx?unit=" + u + "&agg=count");
      urls.push_back("/approx?unit=" + u + "&agg=sum");
    }
    // One import script, one request at a time.
    for (const std::string& url : urls) {
      web::HttpResponse r =
          web_->Dispatch(web::MakeRequest(url, "127.0.0.1", cookie));
      if (r.status_code != 200) {
        return Status::Internal("warm-up " + url + ": " +
                                std::to_string(r.status_code) + " " +
                                r.body.substr(0, 200));
      }
    }
    HEDC_ASSIGN_OR_RETURN(db::ResultSet rs,
                          db_.Execute("SELECT COUNT(*) FROM ana"));
    anas_ = rs.rows[0][0].AsInt();
    return Status::Ok();
  }

  void Snap() {
    std::lock_guard<std::mutex> lock(snap_mu_);
    NumberMap v;
    for (const MetricsRegistry::MetricValue& m :
         MetricsRegistry::Default()->SnapshotValues()) {
      v[m.name] = m.value;
    }
    const db::DbStats& s = db_.stats();
    v["db.stats.queries"] = s.queries.load();
    v["db.stats.updates"] = s.updates.load();
    v["db.stats.full_scans"] = s.full_scans.load();
    v["db.stats.index_scans"] = s.index_scans.load();
    v["db.stats.rows_examined"] = s.rows_examined.load();
    v["db.stats.rows_matched"] = s.rows_matched.load();
    v["e2e.storage.archive_bytes"] =
        static_cast<double>(archive_->BytesStored());
    v["e2e.storage.wal_bytes"] = static_cast<double>(FileSize(wal_path_));
    v["e2e.rss_kb"] = static_cast<double>(PeakRssKb());
    v["e2e.pl.queue_depth_max"] =
        static_cast<double>(queue_depth_max_.exchange(0));
    std::string entry = "{\"t_ns\":" + std::to_string(NowNs()) +
                        ",\"traced\":" + (Tracing() ? "1" : "0") +
                        ",\"v\":" + ToJson(v) + "}";
    snapshots_.push_back(std::move(entry));
  }

  // Alternating traced/untraced slices: a snapshot closes every slice and
  // records whether tracing was on during it.
  void StartSlices(int period_ms) {
    StopSlices();
    slicing_ = true;
    slicer_ = std::thread([this, period_ms] {
      int64_t next = NowNs();
      bool on = false;
      while (slicing_) {
        Snap();
        on = !on;
        g_tracing.store(on);
        next += static_cast<int64_t>(period_ms) * 1000000;
        while (slicing_ && NowNs() < next) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      Snap();
      g_tracing.store(false);
    });
  }

  void StopSlices() {
    if (!slicer_.joinable()) return;
    slicing_ = false;
    slicer_.join();
  }

  std::string Report() {
    NumberMap setup;
    int64_t first = first_request_ns_.load();
    setup["setup_s"] = first > 0 ? (first - start_ns_) / 1e9 : 0;
    setup["ingest_s"] = ingest_ns_ / 1e9;
    setup["units"] = static_cast<double>(units_);
    setup["hles"] = static_cast<double>(hles_.size());
    setup["anas"] = static_cast<double>(anas_);
    setup["photons"] = static_cast<double>(photons_);
    setup["input_bytes"] = static_cast<double>(input_bytes_);
    std::string out = "{\"setup\":" + ToJson(setup) + ",\"snapshots\":[";
    std::lock_guard<std::mutex> lock(snap_mu_);
    for (size_t i = 0; i < snapshots_.size(); ++i) {
      if (i > 0) out += ',';
      out += snapshots_[i];
    }
    return out + "]}";
  }

  ServerArgs args_;
  std::string wal_path_;
  int64_t start_ns_ = 0;
  int64_t ingest_ns_ = 0;
  uint64_t input_bytes_ = 0;
  uint64_t photons_ = 0;
  size_t units_ = 0;
  std::vector<std::pair<int64_t, int64_t>> hles_;  // hle, unit
  int64_t anas_ = 0;  // committed at set-up

  // Declaration order is destruction order reversed: the web tier goes
  // first, the database last.
  VirtualClock clock_;
  db::Database db_;
  archive::ArchiveManager archives_;
  TimedArchive* archive_ = nullptr;
  std::unique_ptr<archive::NameMapper> mapper_;
  std::unique_ptr<dm::DataManager> dm_;
  std::unique_ptr<dm::ProcessLayer> process_;
  dm::Session import_session_;
  ExecutionLedger ledger_;
  std::unique_ptr<analysis::RoutineRegistry> base_routines_;
  analysis::RoutineRegistry routines_;
  std::unique_ptr<pl::IdlServerManager> manager_;
  pl::GlobalDirectory directory_;
  pl::DurationPredictor predictor_;
  std::unique_ptr<pl::ProductCache> product_cache_;
  std::unique_ptr<pl::Frontend> frontend_;
  std::unique_ptr<web::WebServer> web_;
  std::unique_ptr<web::HttpTcpServer> http_;

  CallTimer dispatch_;
  CallTimer overhead_;
  std::mutex span_mu_;
  std::unordered_map<int64_t, int64_t> servlet_spans_;  // trace id -> us
  std::atomic<bool> serving_{false};
  std::atomic<int64_t> first_request_ns_{0};
  std::mutex snap_mu_;
  std::vector<std::string> snapshots_;
  std::atomic<bool> slicing_{false};
  std::thread slicer_;
  std::atomic<int64_t> queue_depth_max_{0};
};

}  // namespace

int RunServer(const ServerArgs& args) {
  auto server = std::make_unique<Server>(args);
  Status setup = server->Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "server set-up failed: %s\n",
                 setup.ToString().c_str());
    return 2;
  }
  int code = server->Serve();
  // The process ends here; tearing the whole stack down would only add
  // time to every run.
  server->RemoveWal();
  std::fflush(nullptr);
  ::_exit(code);
}

}  // namespace hedc::e2e
