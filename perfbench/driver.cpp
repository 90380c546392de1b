// perfbench driver: one benchmark run of one workload, in this process.
//
// perfbench/run.py starts one driver process per run, so peak RSS is the
// run's own and process-wide state (the ranklist intern table, the
// call-site registry) never carries from one run to the next. The driver
//
//   1. sets up the Engine, the CallSiteRegistry and the tool kSetups times
//      (the intern table is reset between set-ups, so each one rebuilds
//      it) and keeps the last one,
//   2. runs the workload with threads = 1,
//   3. encodes the final trace and cluster table,
//   4. prints one JSON object with its timings, the program's own public
//      counters, the output digests and the round-trip check.
//
// With `--traced 1` the tool is wrapped in TimedTool, which times every
// hook call and splits the wall time of Engine::run into the sim's own
// time, per-event hook time, marker rounds and the finalize round. No
// timer is added inside the libraries; every span here is taken around a
// call the driver or the engine makes into a layer.
//
// Usage:
//   perfbench_driver --app lu --procs 4096 --steps 16
//                    --tool none|scalatrace|chameleon [--k 9 --freq 5]
//                    [--seed 1] [--traced 0|1]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/clusterset.hpp"
#include "core/chameleon.hpp"
#include "sim/engine.hpp"
#include "sim/tool.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "trace/callsite.hpp"
#include "trace/ranklist.hpp"
#include "trace/serialize.hpp"
#include "trace/tracer.hpp"
#include "workloads/workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cham;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Log-linear histogram of nanosecond durations: exact below 512 ns, then
/// 256 buckets per power of two (under 0.4% error), fixed memory however
/// many events a run makes.
class NsHistogram {
 public:
  void add(std::uint64_t ns) {
    const std::size_t idx = index(ns);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++total_;
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Lower edge of the bucket holding quantile q (0 when empty).
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return lower_edge(i);
    }
    return lower_edge(counts_.size() - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 512) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= 9
    const int shift = e - 8;
    return 512 + static_cast<std::size_t>(e - 9) * 256 +
           static_cast<std::size_t>((v >> shift) - 256);
  }
  static std::uint64_t lower_edge(std::size_t idx) {
    if (idx < 512) return idx;
    const std::size_t e = (idx - 512) / 256 + 9;
    const std::uint64_t mantissa = (idx - 512) % 256 + 256;
    return mantissa << (e - 8);
  }
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Tool decorator of the traced run. The engine runs every fiber on one OS
/// thread (threads = 1), so at any instant exactly one of these holds:
/// a marker round is open, the finalize round is open, a rank is inside a
/// non-blocking hook, or the engine itself runs. Every hook boundary charges
/// the time since the previous boundary to whichever held, so the four
/// shares partition the time from the first hook entry to the last hook
/// exit.
///
/// Hooks that block (a processed marker, MPI_Finalize's post hook) let other
/// fibers run inside their span, so they are kept as rounds, from the first
/// rank in to the last rank out, never as per-rank spans. A marker round
/// still open when the finalize round starts keeps the overlap.
class TimedTool : public sim::Tool {
 public:
  enum Share : std::size_t { kSim, kEvent, kMarker, kFinalize, kShares };

  /// `marker_round_every`: a rank's n-th marker post hook blocks when n is a
  /// multiple of it (Chameleon's Call_Frequency); 0 means markers never
  /// block (ScalaTrace treats the marker as an ordinary barrier).
  TimedTool(sim::Tool& inner, int nprocs, int marker_round_every)
      : inner_(inner),
        nprocs_(nprocs),
        round_every_(marker_round_every),
        markers_seen_(static_cast<std::size_t>(nprocs), 0),
        pre_ns_(static_cast<std::size_t>(nprocs), 0) {}

  void on_init(sim::Rank rank, sim::Pmpi& pmpi) override {
    const Clock::time_point t0 = enter_event();
    inner_.on_init(rank, pmpi);
    leave_event(t0);
  }

  void on_pre(sim::Rank rank, const sim::CallInfo& info,
              sim::Pmpi& pmpi) override {
    const Clock::time_point t0 = enter_event();
    inner_.on_pre(rank, info, pmpi);
    pre_ns_[static_cast<std::size_t>(rank)] = leave_event(t0);
  }

  void on_post(sim::Rank rank, const sim::CallInfo& info,
               sim::Pmpi& pmpi) override {
    Round* round = nullptr;
    if (info.op == sim::Op::kFinalize) {
      round = &finalize_;
    } else if (info.is_marker && round_every_ > 0 &&
               ++markers_seen_[static_cast<std::size_t>(rank)] %
                       static_cast<std::uint64_t>(round_every_) ==
                   0) {
      round = &marker_;
    }
    if (round != nullptr) {
      enter_round(*round);
      inner_.on_post(rank, info, pmpi);
      leave_round(*round);
      return;
    }
    const Clock::time_point t0 = enter_event();
    inner_.on_post(rank, info, pmpi);
    const std::uint64_t post_ns = leave_event(t0);
    if (info.op != sim::Op::kInit)
      event_ns_.add(pre_ns_[static_cast<std::size_t>(rank)] + post_ns);
  }

  void on_stall(sim::Engine& engine) override { inner_.on_stall(engine); }

  [[nodiscard]] double share_seconds(Share s) const { return seconds_[s]; }
  [[nodiscard]] const NsHistogram& event_ns() const { return event_ns_; }
  [[nodiscard]] const std::vector<double>& marker_rounds() const {
    return marker_.durations;
  }

 private:
  struct Round {
    bool open = false;
    int out = 0;
    Clock::time_point start{};
    std::vector<double> durations;
  };

  [[nodiscard]] Share current() const {
    if (marker_.open) return kMarker;
    if (finalize_.open) return kFinalize;
    return in_event_ ? kEvent : kSim;
  }

  /// Charge the time since the previous boundary to the share that held.
  void boundary(Clock::time_point now) {
    if (started_) seconds_[current()] += seconds_between(mark_, now);
    started_ = true;
    mark_ = now;
  }

  Clock::time_point enter_event() {
    const Clock::time_point now = Clock::now();
    boundary(now);
    in_event_ = true;
    return now;
  }
  std::uint64_t leave_event(Clock::time_point t0) {
    const Clock::time_point now = Clock::now();
    boundary(now);
    in_event_ = false;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0).count());
  }

  void enter_round(Round& round) {
    const Clock::time_point now = Clock::now();
    boundary(now);
    if (!round.open) {
      round.open = true;
      round.out = 0;
      round.start = now;
    }
  }
  void leave_round(Round& round) {
    const Clock::time_point now = Clock::now();
    boundary(now);
    if (++round.out == nprocs_) {
      round.open = false;
      round.durations.push_back(seconds_between(round.start, now));
    }
  }

  sim::Tool& inner_;
  int nprocs_;
  int round_every_;
  std::vector<std::uint64_t> markers_seen_;
  std::vector<std::uint64_t> pre_ns_;
  NsHistogram event_ns_;
  Round marker_;
  Round finalize_;
  bool in_event_ = false;
  bool started_ = false;
  Clock::time_point mark_{};
  std::array<double, kShares> seconds_{};
};

// Every workload runs its NPB-style input class C.
constexpr char kInputClass = 'C';
// Set-ups per run; the run reports their median.
constexpr int kSetups = 25;

struct Options {
  std::string app;
  int procs = 0;
  int steps = 0;
  std::string tool = "none";
  std::size_t k = 0;
  int freq = 1;
  std::uint64_t seed = 1;
  bool traced = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --app NAME --procs P --steps N "
               "--tool none|scalatrace|chameleon [--k K] [--freq F] "
               "[--seed S] [--traced 0|1]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0)
      usage("arguments come in --name value pairs");
    kv[argv[i] + 2] = argv[i + 1];
  }
  const auto take = [&](const char* key) -> std::optional<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  Options o;
  o.app = take("app").value_or("");
  o.procs = std::atoi(take("procs").value_or("0").c_str());
  o.steps = std::atoi(take("steps").value_or("0").c_str());
  o.tool = take("tool").value_or("none");
  o.k = std::strtoull(take("k").value_or("0").c_str(), nullptr, 10);
  o.freq = std::atoi(take("freq").value_or("1").c_str());
  o.seed = std::strtoull(take("seed").value_or("1").c_str(), nullptr, 10);
  o.traced = take("traced").value_or("0") == "1";
  if (!kv.empty()) usage(("unknown option --" + kv.begin()->first).c_str());
  if (o.procs < 1) usage("--procs must be at least 1");
  if (o.freq < 1) usage("--freq must be at least 1");
  if (o.tool != "none" && o.tool != "scalatrace" && o.tool != "chameleon")
    usage("--tool must be none, scalatrace or chameleon");
  if (o.tool == "chameleon" && o.k == 0) usage("--tool chameleon needs --k");
  return o;
}

/// Everything one set-up builds; destroyed in reverse order.
struct Setup {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<trace::CallSiteRegistry> stacks;
  std::unique_ptr<trace::ScalaTraceTool> scalatrace;
  std::unique_ptr<core::ChameleonTool> chameleon;

  /// Tear down tools first: they hold pointers into the registry.
  void reset() {
    chameleon.reset();
    scalatrace.reset();
    stacks.reset();
    engine.reset();
  }
  [[nodiscard]] trace::ScalaTraceTool* tracer() const {
    return chameleon ? chameleon.get() : scalatrace.get();
  }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return support::fnv1a64(bytes.data(), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const workloads::WorkloadInfo* info = workloads::find_workload(opt.app);
  if (info == nullptr) usage(("unknown workload " + opt.app).c_str());

  workloads::WorkloadParams params;
  params.cls = kInputClass;
  params.timesteps = opt.steps;
  params.seed = opt.seed;

  // --- set-up, repeated; every one but the last is torn down again --------
  std::vector<double> setup_samples;
  std::vector<double> engine_samples;
  Setup s;
  Clock::time_point setup_start{};
  for (int rep = 0; rep < kSetups; ++rep) {
    if (rep > 0) {
      s.reset();
      trace::ranklist_intern_reset();
    }
    setup_start = Clock::now();
    s.engine = std::make_unique<sim::Engine>(
        sim::EngineOptions{.nprocs = opt.procs, .threads = 1});
    const Clock::time_point engine_done = Clock::now();
    s.stacks = std::make_unique<trace::CallSiteRegistry>(opt.procs);
    if (opt.tool == "chameleon") {
      s.chameleon = std::make_unique<core::ChameleonTool>(
          opt.procs, s.stacks.get(),
          core::ChameleonConfig{.k = opt.k, .call_frequency = opt.freq});
    } else if (opt.tool == "scalatrace") {
      s.scalatrace =
          std::make_unique<trace::ScalaTraceTool>(opt.procs, s.stacks.get());
    }
    const Clock::time_point setup_done = Clock::now();
    engine_samples.push_back(seconds_between(setup_start, engine_done));
    setup_samples.push_back(seconds_between(setup_start, setup_done));
  }

  // --- run (a run with tool none installs no tool at all) -------------------
  std::optional<TimedTool> timed;
  if (opt.traced && s.tracer() != nullptr) {
    timed.emplace(*s.tracer(), opt.procs,
                  opt.tool == "chameleon" ? opt.freq : 0);
    s.engine->set_tool(&*timed);
  } else if (s.tracer() != nullptr) {
    s.engine->set_tool(s.tracer());
  }
  trace::CallSiteRegistry& stacks = *s.stacks;
  const Clock::time_point run_start = Clock::now();
  s.engine->run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
  const Clock::time_point run_done = Clock::now();

  // --- final outputs -------------------------------------------------------
  trace::ScalaTraceTool* tracer = s.tracer();
  std::vector<std::uint8_t> trace_wire;
  std::vector<std::uint8_t> cluster_wire;
  double trace_encode_s = 0.0;
  double cluster_encode_s = 0.0;
  if (tracer != nullptr) {
    const std::vector<trace::TraceNode>& nodes =
        s.chameleon ? s.chameleon->online_trace() : tracer->global_trace();
    const Clock::time_point t0 = Clock::now();
    trace_wire = trace::encode_trace(nodes);
    const Clock::time_point t1 = Clock::now();
    trace_encode_s = seconds_between(t0, t1);
    if (s.chameleon) {
      cluster_wire = s.chameleon->clusters().encode();
      cluster_encode_s = seconds_between(t1, Clock::now());
    }
  }
  const Clock::time_point outputs_done = Clock::now();

  // --- checks (untimed) ----------------------------------------------------
  bool roundtrip_ok = true;
  std::uint64_t structure_digest = 0;
  std::uint64_t cluster_digest = 0;
  if (tracer != nullptr) {
    const std::vector<trace::TraceNode>& nodes =
        s.chameleon ? s.chameleon->online_trace() : tracer->global_trace();
    roundtrip_ok = trace::encode_trace(trace::decode_trace(trace_wire)) == trace_wire;
    structure_digest = digest(trace::encode_trace_structure(nodes));
    if (s.chameleon) {
      roundtrip_ok = roundtrip_ok &&
                     cluster::ClusterSet::decode(cluster_wire).encode() == cluster_wire;
      cluster_digest = digest(cluster_wire);
    }
  }
  // Bare-run digest: every rank's virtual completion time plus the engine's
  // traffic counters. Only a run with no tool is deterministic to the bit
  // (tools charge host CPU time into the virtual clocks).
  std::uint64_t bare_digest = support::fnv1a64("perfbench.bare");
  for (int r = 0; r < opt.procs; ++r) {
    const double v = s.engine->vtime(r);
    bare_digest = support::fnv1a64(&v, sizeof v, bare_digest);
  }
  for (const std::uint64_t c : {s.engine->messages_sent(), s.engine->bytes_sent(),
                                s.engine->collectives_run()})
    bare_digest = support::fnv1a64(&c, sizeof c, bare_digest);

  // --- report --------------------------------------------------------------
  const double run_s = seconds_between(run_start, run_done);
  // Rank-level MPI calls the tool saw (MPI_Init and MPI_Finalize excluded);
  // 0 with no tool, which has nothing to count them.
  std::uint64_t calls = 0;
  if (tracer != nullptr) {
    for (int r = 0; r < opt.procs; ++r) calls += tracer->rank_state(r).events_observed;
  }
  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);

  support::json::Writer j(false);
  j.begin_object();
  j.member("workload", opt.app);
  j.member("procs", static_cast<std::uint64_t>(opt.procs));
  j.member("seed", opt.seed);
  j.member("traced", opt.traced);
  j.member("compiler", __VERSION__);
  j.member("build_type", PERFBENCH_BUILD_TYPE);
  j.member("setup_s", median(setup_samples));
  j.member("wall_s", seconds_between(setup_start, outputs_done));
  j.member("run_s", run_s);
  j.member("calls", calls);
  j.member("maxrss_kb", static_cast<std::uint64_t>(usage_self.ru_maxrss));
  j.member("trace_bytes", trace_wire.size());
  j.member("roundtrip_ok", roundtrip_ok);
  j.member("structure_digest", hex(structure_digest));
  j.member("cluster_digest", hex(cluster_digest));
  j.member("bare_digest", hex(bare_digest));

  j.member("sim.setup_s", median(engine_samples));
  j.member("sim.run_s", run_s);
  j.member("sim.messages", s.engine->messages_sent());
  j.member("sim.bytes", s.engine->bytes_sent());
  j.member("sim.collectives", s.engine->collectives_run());

  trace::PerfCounters perf;
  if (tracer != nullptr) perf = tracer->perf_counters();
  j.member("trace.events_recorded", tracer ? tracer->events_recorded_total() : 0);
  j.member("trace.fold.windows", perf.fold_windows_tested);
  j.member("trace.fold.hash_rejects", perf.fold_hash_rejects);
  j.member("trace.fold.folds", perf.folds_performed);

  const trace::RankListInternStats intern = trace::ranklist_intern_stats();
  j.member("trace.intern.entries", intern.entries);
  j.member("trace.intern.singleton_hits", intern.singleton_hits);
  j.member("trace.intern.union_memo_hits", intern.union_memo_hits);
  j.member("trace.intern.arena_kb", static_cast<double>(intern.arena_bytes) / 1024.0);

  j.member("trace.merge.ops", tracer ? tracer->merge_operations() : 0);
  j.member("trace.merge.bytes", tracer ? tracer->merge_bytes() : 0);
  j.member("trace.merge.prechecks", perf.merge_prechecks);
  j.member("trace.merge.hash_rejects", perf.merge_hash_rejects);
  j.member("trace.merge.deep_compares", perf.merge_deep_compares);
  j.member("trace.merge.memo_hits", perf.merge_memo_hits);
  j.member("trace.merge.zip_hits", perf.merge_zip_hits);
  j.member("trace.merge.cpu_s", tracer ? tracer->inter_seconds() : 0.0);

  const core::ChameleonTool* cham = s.chameleon.get();
  const auto state = [&](core::MarkerState st) -> std::uint64_t {
    return cham ? cham->state_count(st) : 0;
  };
  j.member("core.markers", cham ? cham->marker_calls_processed() : 0);
  j.member("core.state.at", state(core::MarkerState::kAllTracing));
  j.member("core.state.c", state(core::MarkerState::kClustering));
  j.member("core.state.l", state(core::MarkerState::kLead));
  j.member("core.clustering_cpu_s", cham ? cham->clustering_seconds() : 0.0);
  j.member("cluster.k", cham ? cham->effective_k() : 0);
  j.member("cluster.callpaths", cham ? cham->num_callpath_clusters() : 0);
  j.member("cluster.encode_s", cluster_encode_s);

  j.member("trace.serialize.encode_s", trace_encode_s);
  j.member("trace.serialize.bytes_encoded", perf.bytes_encoded);
  j.member("trace.serialize.bytes_decoded", perf.bytes_decoded);

  // Layer split of Engine::run (traced runs with a tool only; a run with no
  // tool has no hooks, so all of it is the sim's own time).
  double sim_self = run_s;
  double event_s = 0.0;
  double marker_s = 0.0;
  double finalize_s = 0.0;
  std::uint64_t event_calls = 0;
  std::uint64_t ns_p50 = 0;
  std::uint64_t ns_p99 = 0;
  double round_ms_p50 = 0.0;
  if (timed) {
    sim_self = timed->share_seconds(TimedTool::kSim);
    event_s = timed->share_seconds(TimedTool::kEvent);
    marker_s = timed->share_seconds(TimedTool::kMarker);
    finalize_s = timed->share_seconds(TimedTool::kFinalize);
    event_calls = timed->event_ns().total();
    ns_p50 = timed->event_ns().quantile(0.50);
    ns_p99 = timed->event_ns().quantile(0.99);
    round_ms_p50 = median(timed->marker_rounds()) * 1e3;
  }
  j.member("sim.self_s", sim_self);
  j.member("trace.event.calls", event_calls);
  j.member("trace.event.s", event_s);
  j.member("trace.event.ns_p50", ns_p50);
  j.member("trace.event.ns_p99", ns_p99);
  j.member("core.marker_round_s", marker_s);
  j.member("core.marker_round_ms_p50", round_ms_p50);
  j.member("trace.merge.finalize_s", finalize_s);
  j.member("run.unattributed_s", run_s - sim_self - event_s - marker_s - finalize_s);

  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
