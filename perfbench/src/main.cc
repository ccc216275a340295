// trial_perfbench: the end-to-end TriAL query benchmark.
//
//   trial_perfbench --workload sp2b_read --seed 1 --seconds 10 --trace 0
//                   --work-dir DIR [--spans FILE]
//
// One run, single process, one closed-loop client.  After input
// generation (the workload's N-Triples document, from the seed) the run
// makes kRounds rounds of:
//
//   1. set-up        BulkLoadNTriples -> SaveStoreSnapshot ->
//                    OpenStoreSnapshot into the measured store
//   2. cold passes   kColdPerRound times: the op mix once on a fresh
//                    open of the snapshot with a fresh evaluator
//                    (cold_ms is the median over all cold passes)
//   3. warm slice    seeded passes of the op mix for --seconds / kRounds,
//                    one long-lived smart evaluator, cut into
//                    Workload::setups_per_round pieces with one more
//                    set-up (into a dropped store) between pieces
//                    (setup_s is the median over all set-ups)
//   4. write probe   kProbeWrites / kRounds write ops (update_p50_ms)
//
// The last round runs the untimed differential checks (see README.md)
// before its write probe.
//
// The last stdout line is one JSON report; perfbench/run.py reduces it
// to its summary line (correct, attempted, failed, metrics).  With
// --trace 1, warm passes alternate between traced (spans + engine
// metrics registry on) and untraced, the per-layer metrics come from
// the traced passes and the gap between the two halves is reported
// as tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/eval.h"
#include "core/optimizer.h"
#include "core/parser.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/to_trial.h"
#include "loader/bulk_load.h"
#include "storage/segment/store_snapshot.h"
#include "trace.h"
#include "util/metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

using trial::MonotonicNanos;
using trial::Result;
using trial::Status;
using trial::TripleSet;
using trial::TripleStore;

constexpr size_t kRounds = 3;
constexpr size_t kColdPerRound = 2;
constexpr size_t kProbeWrites = 48;
// Traced runs time an explicit index rebuild after every kRebuildEvery-th
// probe write (a full rebuild of a 10^6-triple relation is ~0.3 s).
constexpr size_t kRebuildEvery = 6;

// ---- arguments ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + key;
      return false;
    }
    std::string v = argv[++i];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (key == "--trace") {
      a->trace = v == "1";
    } else if (key == "--work-dir") {
      a->work_dir = v;
    } else if (key == "--spans") {
      a->spans_path = v;
    } else {
      *err = "unknown argument " + key;
      return false;
    }
  }
  if (a->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  if (!(a->seconds > 0)) {
    *err = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---- decode: names and an order-independent fingerprint ----------------

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A name hash that reads eight bytes at a time, so folding millions of
// result names costs little next to the engine work being measured.
// Stable across builds and hosts (the golden answers depend on it).
uint64_t NameHash(std::string_view s) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ s.size();
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, s.data() + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  return Mix(h ^ tail);
}

uint64_t TripleHash(std::string_view s, std::string_view p,
                    std::string_view o) {
  return Mix(NameHash(s) ^ Mix(NameHash(p) ^ Mix(NameHash(o))));
}

/// A decoded answer: row count and the sum of per-triple name hashes.
struct Answer {
  uint64_t rows = 0;
  uint64_t fp = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && fp == o.fp;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};

Answer Decode(const TripleSet& set, const TripleStore& store) {
  Answer a;
  for (const trial::Triple& t : set) {
    a.fp += TripleHash(store.ObjectName(t.s), store.ObjectName(t.p),
                       store.ObjectName(t.o));
    ++a.rows;
  }
  return a;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- small statistics ---------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// ---- the benchmark ------------------------------------------------------

/// Activity of the traced warm passes, beyond what the spans total.
struct TracedWarm {
  uint64_t plan_calls = 0;    // explicit PlanExpr calls
  uint64_t plan_ns = 0;
  uint64_t exec_ns = 0;       // exec.query_ns (adaptive: with PlanExpr)
  uint64_t exec_ops = 0;      // TriAL + shortest-path reads
  uint64_t read_ops = 0;
  uint64_t rows = 0;
  uint64_t ops = 0;           // reads + writes
  std::vector<size_t> count;  // per read op
  RegistryView registry;
  std::map<std::string, LayerTotal> spans;  // span totals
};

class Bench {
 public:
  Bench(Args args, Workload w) : args_(std::move(args)), w_(std::move(w)) {
    limits_.exec.num_threads = w_.exec_threads;
    limits_.adaptive = w_.adaptive;
    snapshot_path_ = args_.work_dir + "/" + w_.name + "-" +
                     std::to_string(args_.seed) + ".trial";
    exec_hist_ =
        trial::MetricsRegistry::Global().GetHistogram("exec.query_ns");
  }

  int Run();

 private:
  // ---- phases ----
  /// The loader and snapshot-save half of a set-up, writing `path`.
  Status LoadAndSave(const std::string& path);
  /// One load -> save -> open into the measured store; `first` also
  /// draws the op mix.
  Status SetupOnce(bool first);
  /// One load -> save -> open into a store that is then dropped, for a
  /// set-up sample taken between warm slices.
  Status SideSetup();
  /// Opens the snapshot into a fresh store with a fresh evaluator.
  Status Open();
  void ColdPass(int rep);
  /// Warm passes of the mix for `seconds` on the current store.
  void WarmPhase(double seconds);
  void Checks();
  void Profile();
  /// `n` write ops after the warm passes (update_p50_ms).
  void WriteProbe(size_t n);
  void Report();

  // ---- ops ----
  Status RunRead(const ReadOp& op, uint64_t id, size_t threads,
                 trial::Evaluator* ev, Answer* ans);
  Status RunTrial(const std::string& text, uint64_t id,
                  trial::Evaluator* ev, Answer* ans);
  /// Runs read op `i` (timed) and checks it against the reference.
  double TimedRead(int i, bool cold_reference);
  /// Runs one write op (timed); checks its read-back.
  double TimedWrite();
  /// The planner layer: plan::PlanExpr on the last op's optimized
  /// expression, timed outside the op (the evaluator's own planning
  /// happens inside Eval, behind its plan cache).
  void TimePlanner(uint64_t id);
  /// The storage layer's index builds on relation E of `store`: stats
  /// and every permutation.  Returns the milliseconds taken.
  double BuildIndexes(const TripleStore& store, const char* span);
  void Fail(const std::string& what);
  /// Spans and the engine's metrics registry on or off.
  void SetTracing(bool on);

  std::unique_ptr<trial::Evaluator> NewEvaluator(size_t threads,
                                                 bool adaptive) const {
    trial::EvalOptions o;
    static_cast<trial::ExecLimits&>(o) = limits_;
    o.exec.num_threads = threads;
    o.adaptive = adaptive;
    return trial::MakeSmartEvaluator(o);
  }

  Args args_;
  Workload w_;
  trial::ExecLimits limits_;
  std::string snapshot_path_;
  trial::Histogram* exec_hist_ = nullptr;
  Tracer tracer_;

  std::unique_ptr<TripleStore> store_;
  std::unique_ptr<trial::Evaluator> eval_;
  trial::RelId rel_e_ = 0;

  std::vector<int> cold_pass_;
  std::vector<Answer> reference_;
  uint64_t cold_chain_ = 0;
  uint64_t cold_rows_ = 0;

  size_t writes_done_ = 0;
  trial::Rng write_rng_{0};
  uint64_t next_op_ = 1;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;

  // measurements
  std::vector<double> setup_s_, load_ms_, save_ms_, open_ms_, cold_ms_;
  std::vector<double> index_build_ms_;
  double store_bytes_ = 0, store_triples_ = 0;
  std::vector<std::vector<double>> warm_ms_;         // per read op
  std::vector<std::vector<double>> warm_ms_traced_;  // trace mode
  std::vector<double> write_ms_;
  trial::Rng pass_rng_{0};
  size_t warm_passes_ = 0;
  uint64_t warm_ops_ = 0;
  double warm_seconds_ = 0;
  double minor_faults_ = 0, user_cpu_s_ = 0, sys_cpu_s_ = 0;
  size_t probe_writes_ = 0;

  // trace-mode measurements
  bool traced_now_ = false;  // inside a traced warm pass
  trial::ExprPtr last_expr_;  // optimized expression of the last TriAL op
  TracedWarm tw_;
  RegistryView cold_registry_;  // summed over the cold passes
  std::vector<double> rebuild_ms_;
  std::map<std::string, double> self_ms_;
  double max_q_error_ = 0;
};

void Bench::Fail(const std::string& what) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(what);
}

void Bench::TimePlanner(uint64_t id) {
  trial::plan::PlanningHints hints;
  if (w_.adaptive) hints.feedback = &trial::plan::FeedbackCache::Global();
  // Registry off: this extra planning must not count as the engine's
  // own feedback-cache lookups.
  trial::SetMetricsEnabled(false);
  const int h = tracer_.Begin("planner", id);
  trial::plan::PlanPtr plan = trial::plan::PlanExpr(last_expr_, *store_, hints);
  tw_.plan_ns += tracer_.End(h);
  trial::SetMetricsEnabled(true);
  ++tw_.plan_calls;
  last_expr_ = nullptr;
}

double Bench::BuildIndexes(const TripleStore& store, const char* span) {
  const uint64_t t0 = MonotonicNanos();
  ScopedSpan s(&tracer_, span, 0);
  store.RelationStats(rel_e_);
  const TripleSet& rel = store.Relation(rel_e_);
  rel.Materialize(trial::IndexOrder::kSPO);
  rel.Materialize(trial::IndexOrder::kPOS);
  rel.Materialize(trial::IndexOrder::kOSP);
  return Millis(MonotonicNanos() - t0);
}

void Bench::SetTracing(bool on) {
  tracer_.set_on(on);
  trial::SetMetricsEnabled(on);
}

Status Bench::RunTrial(const std::string& text, uint64_t id,
                       trial::Evaluator* ev, Answer* ans) {
  trial::ExprPtr e;
  {
    ScopedSpan s(&tracer_, "parser", id);
    Result<trial::ExprPtr> r = trial::ParseTriAL(text, store_.get());
    if (!r.ok()) return r.status();
    e = *r;
  }
  {
    ScopedSpan s(&tracer_, "optimizer", id);
    e = trial::Optimize(e);
  }
  TripleSet result;
  {
    const uint64_t exec_before = traced_now_ ? exec_hist_->sum() : 0;
    ScopedSpan s(&tracer_, "smart_eval", id);
    Result<TripleSet> r = ev->Eval(e, *store_);
    if (traced_now_) {
      tw_.exec_ns += exec_hist_->sum() - exec_before;
      ++tw_.exec_ops;
    }
    if (!r.ok()) return r.status();
    result = std::move(*r);
  }
  {
    ScopedSpan s(&tracer_, "decode", id);
    *ans = Decode(result, *store_);
  }
  if (traced_now_) last_expr_ = std::move(e);
  return Status::OK();
}

Status Bench::RunRead(const ReadOp& op, uint64_t id, size_t threads,
                      trial::Evaluator* ev, Answer* ans) {
  switch (op.kind) {
    case OpKind::kTriAL:
      return RunTrial(op.text, id, ev, ans);
    case OpKind::kDatalog: {
      trial::datalog::Program program;
      {
        ScopedSpan s(&tracer_, "datalog.parse", id);
        Result<trial::datalog::Program> p =
            trial::datalog::ParseProgram(op.text);
        if (!p.ok()) return p.status();
        program = std::move(*p);
      }
      trial::datalog::DatalogOptions dopts;
      static_cast<trial::ExecLimits&>(dopts) = limits_;
      dopts.exec.num_threads = threads;
      TripleSet result;
      {
        ScopedSpan s(&tracer_, "datalog.eval", id);
        Result<TripleSet> r =
            trial::datalog::EvalProgram(program, *store_, "ans", dopts);
        if (!r.ok()) return r.status();
        result = std::move(*r);
      }
      ScopedSpan s(&tracer_, "decode", id);
      *ans = Decode(result, *store_);
      return Status::OK();
    }
    case OpKind::kShortestPath: {
      trial::plan::PlanPtr plan;
      {
        ScopedSpan s(&tracer_, "plan.shortest_path", id);
        plan = trial::plan::PlanShortestPath(*store_, "E", op.src, op.dst);
      }
      trial::ExecLimits lim = limits_;
      lim.exec.num_threads = threads;
      TripleSet result;
      {
        const uint64_t exec_before = traced_now_ ? exec_hist_->sum() : 0;
        ScopedSpan s(&tracer_, "exec", id);
        Result<TripleSet> r = trial::plan::ExecutePlan(*plan, *store_, lim);
        if (traced_now_) {
          tw_.exec_ns += exec_hist_->sum() - exec_before;
          ++tw_.exec_ops;
        }
        if (!r.ok()) return r.status();
        result = std::move(*r);
      }
      ScopedSpan s(&tracer_, "decode", id);
      *ans = Decode(result, *store_);
      return Status::OK();
    }
  }
  return Status::Internal("unknown op kind");
}

double Bench::TimedRead(int i, bool cold_reference) {
  const ReadOp& op = w_.reads[static_cast<size_t>(i)];
  const uint64_t id = next_op_++;
  last_expr_ = nullptr;
  Answer ans;
  ++attempted_;
  const uint64_t t0 = MonotonicNanos();
  Status st;
  {
    ScopedSpan root(&tracer_, "op.read", id);
    st = RunRead(op, id, w_.exec_threads, eval_.get(), &ans);
  }
  const double ms = Millis(MonotonicNanos() - t0);
  if (traced_now_ && last_expr_ != nullptr) TimePlanner(id);
  if (!st.ok()) {
    Fail(op.tmpl + ": " + st.ToString());
    return ms;
  }
  Answer& ref = reference_[static_cast<size_t>(i)];
  if (cold_reference) {
    ref = ans;
  } else if (ans != ref) {
    Fail(op.tmpl + ": answer differs from the cold pass (" + op.text + ")");
  }
  if (traced_now_) {
    ++tw_.read_ops;
    tw_.rows += ans.rows;
  }
  return ms;
}

double Bench::TimedWrite() {
  const uint64_t id = next_op_++;
  const size_t k = writes_done_++;
  WriteBatch b = MakeWriteBatch(k, &write_rng_);
  Answer expect;
  for (const auto& t : b.triples) {
    expect.fp += TripleHash(t[0], t[1], t[2]);
    ++expect.rows;
  }
  ++attempted_;
  Answer got;
  const uint64_t t0 = MonotonicNanos();
  Status st;
  {
    ScopedSpan root(&tracer_, "op.write", id);
    {
      ScopedSpan s(&tracer_, "write.append", id);
      std::vector<trial::Triple> batch;
      batch.reserve(b.triples.size());
      for (const auto& t : b.triples) {
        batch.push_back(trial::Triple{store_->InternObject(t[0]),
                                      store_->InternObject(t[1]),
                                      store_->InternObject(t[2])});
      }
      store_->BulkAppend(rel_e_, std::move(batch));
    }
    // Read-your-write: the next lookup on the batch's subject.
    st = RunTrial("sigma[1=\"" + b.subject + "\"](E)", id, eval_.get(), &got);
  }
  const double ms = Millis(MonotonicNanos() - t0);
  last_expr_ = nullptr;
  if (!st.ok()) {
    Fail("write read-back: " + st.ToString());
  } else if (got != expect) {
    Fail("write read-back: batch " + std::to_string(k) +
         " is not readable by a lookup on its subject");
  }
  return ms;
}

Status Bench::LoadAndSave(const std::string& path) {
  const uint64_t id = 0;
  trial::BulkLoadOptions lo;
  lo.num_threads = 1;
  lo.relation = "E";
  uint64_t t_load = MonotonicNanos();
  Result<TripleStore> loaded = Status::Internal("not loaded");
  {
    ScopedSpan s(&tracer_, "loader", id);
    loaded = trial::BulkLoadNTriples(w_.document, lo);
  }
  if (!loaded.ok()) return loaded.status();
  load_ms_.push_back(Millis(MonotonicNanos() - t_load));
  uint64_t t_save = MonotonicNanos();
  {
    ScopedSpan s(&tracer_, "segment.save", id);
    TRIAL_RETURN_IF_ERROR(trial::SaveStoreSnapshot(*loaded, path));
  }
  save_ms_.push_back(Millis(MonotonicNanos() - t_save));
  return Status::OK();
}

Status Bench::SetupOnce(bool first) {
  store_.reset();
  eval_.reset();
  const uint64_t t0 = MonotonicNanos();
  TRIAL_RETURN_IF_ERROR(LoadAndSave(snapshot_path_));
  TRIAL_RETURN_IF_ERROR(Open());
  setup_s_.push_back(Seconds(MonotonicNanos() - t0));
  if (tracer_.on()) {
    // The storage layer's index builds, timed on a second open of the
    // snapshot so the measured store's cold pass still pays them.
    Result<TripleStore> side = trial::OpenStoreSnapshot(snapshot_path_);
    if (!side.ok()) return side.status();
    index_build_ms_.push_back(BuildIndexes(*side, "storage.index_build"));
  }
  if (first) MakeReads(*store_, &w_);
  return Status::OK();
}

Status Bench::SideSetup() {
  const std::string path = snapshot_path_ + ".side";
  const uint64_t t0 = MonotonicNanos();
  TRIAL_RETURN_IF_ERROR(LoadAndSave(path));
  const uint64_t t_open = MonotonicNanos();
  Result<TripleStore> opened = Status::Internal("not opened");
  {
    ScopedSpan s(&tracer_, "segment.open", 0);
    opened = trial::OpenStoreSnapshot(path);
  }
  if (!opened.ok()) return opened.status();
  open_ms_.push_back(Millis(MonotonicNanos() - t_open));
  setup_s_.push_back(Seconds(MonotonicNanos() - t0));
  std::remove(path.c_str());
  return Status::OK();
}

Status Bench::Open() {
  store_.reset();
  eval_.reset();
  // The feedback cache keys entries on the store's address; a fresh
  // store may reuse the previous one's.
  trial::plan::FeedbackCache::Global().Clear();
  const uint64_t t_open = MonotonicNanos();
  trial::OpenSnapshotStats os;
  Result<TripleStore> opened = Status::Internal("not opened");
  {
    ScopedSpan s(&tracer_, "segment.open", 0);
    opened = trial::OpenStoreSnapshot(snapshot_path_, {}, &os);
  }
  if (!opened.ok()) return opened.status();
  open_ms_.push_back(Millis(MonotonicNanos() - t_open));
  store_ = std::make_unique<TripleStore>(std::move(*opened));
  store_bytes_ = static_cast<double>(os.bytes);
  store_triples_ = static_cast<double>(os.triples);
  bool found = false;
  for (trial::RelId r = 0; r < store_->NumRelations(); ++r) {
    if (store_->RelationName(r) == "E") {
      rel_e_ = r;
      found = true;
    }
  }
  if (!found) return Status::Internal("loaded store has no relation E");
  eval_ = NewEvaluator(w_.exec_threads, w_.adaptive);
  return Status::OK();
}

void Bench::ColdPass(int rep) {
  if (rep == 0) {
    trial::Rng pass_rng(w_.seed * 31 + 7);
    cold_pass_ = MakePass(w_, &pass_rng);
    reference_.assign(w_.reads.size(), Answer{});
  }
  // Every round's write probe replays the same writes.
  writes_done_ = 0;
  write_rng_ = trial::Rng(w_.seed * 31 + 11);
  const RegistryView before =
      tracer_.on() ? RegistryView::Capture() : RegistryView{};
  uint64_t chain = 0, rows = 0;
  const uint64_t t0 = MonotonicNanos();
  for (int slot : cold_pass_) {
    TimedRead(slot, /*cold_reference=*/rep == 0);
    const Answer& a = reference_[static_cast<size_t>(slot)];
    chain = Mix(chain ^ a.fp ^ Mix(a.rows));
    rows += a.rows;
  }
  cold_ms_.push_back(Millis(MonotonicNanos() - t0));
  if (tracer_.on()) cold_registry_.Add(RegistryView::Capture().Minus(before));
  if (rep == 0) {
    cold_chain_ = chain;
    cold_rows_ = rows;
  } else if (chain != cold_chain_) {
    Fail("cold pass " + std::to_string(rep) +
         " answers differ from the first cold pass");
  }
}

void Bench::WarmPhase(double seconds) {
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const uint64_t t0 = MonotonicNanos();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  bool done = false;
  while (!done) {
    std::vector<int> order = MakePass(w_, &pass_rng_);
    const bool traced = args_.trace && warm_passes_++ % 2 == 0;
    SetTracing(traced);
    traced_now_ = traced;
    const RegistryView before =
        traced ? RegistryView::Capture() : RegistryView{};
    const std::map<std::string, LayerTotal> spans_before = tracer_.totals();
    for (int slot : order) {
      if (MonotonicNanos() >= deadline) {
        done = true;
        break;
      }
      ++warm_ops_;
      if (traced) ++tw_.ops;
      double ms = TimedRead(slot, /*cold_reference=*/false);
      const size_t i = static_cast<size_t>(slot);
      if (traced) {
        warm_ms_traced_[i].push_back(ms);
        ++tw_.count[i];
      } else {
        warm_ms_[i].push_back(ms);
      }
    }
    if (traced) {
      tw_.registry.Add(RegistryView::Capture().Minus(before));
      for (const auto& [name, t] : tracer_.totals()) {
        auto it = spans_before.find(name);
        LayerTotal& into = tw_.spans[name];
        into.calls += t.calls - (it == spans_before.end() ? 0 : it->second.calls);
        into.ns += t.ns - (it == spans_before.end() ? 0 : it->second.ns);
      }
    }
  }
  traced_now_ = false;
  warm_seconds_ += Seconds(MonotonicNanos() - t0);
  getrusage(RUSAGE_SELF, &ru1);
  SetTracing(false);
  minor_faults_ += static_cast<double>(ru1.ru_minflt - ru0.ru_minflt);
  user_cpu_s_ += TimevalSeconds(ru1.ru_utime) - TimevalSeconds(ru0.ru_utime);
  sys_cpu_s_ += TimevalSeconds(ru1.ru_stime) - TimevalSeconds(ru0.ru_stime);
}

void Bench::Checks() {
  const uint64_t id = 0;
  ScopedSpan root(&tracer_, "checks", id);
  // Adaptive vs static plan on the correlated chain.
  if (w_.adaptive && w_.correlated_op >= 0) {
    ++attempted_;
    const ReadOp& op = w_.reads[static_cast<size_t>(w_.correlated_op)];
    auto st_eval = NewEvaluator(w_.exec_threads, /*adaptive=*/false);
    Answer a;
    Status st = RunTrial(op.text, id, st_eval.get(), &a);
    if (!st.ok()) {
      Fail("static correlated: " + st.ToString());
    } else if (a != reference_[static_cast<size_t>(w_.correlated_op)]) {
      Fail("adaptive answer differs from the static plan on the correlated chain");
    }
  }
  // Every read op at 1 thread equals the multi-threaded answer.
  if (w_.exec_threads > 1) {
    auto one = NewEvaluator(1, w_.adaptive);
    for (size_t i = 0; i < w_.reads.size(); ++i) {
      ++attempted_;
      Answer a;
      Status st = RunRead(w_.reads[i], id, 1, one.get(), &a);
      if (!st.ok()) {
        Fail(w_.reads[i].tmpl + " at 1 thread: " + st.ToString());
      } else if (a != reference_[i]) {
        Fail(w_.reads[i].tmpl + ": 1-thread answer differs from " +
             std::to_string(w_.exec_threads) + " threads");
      }
    }
  }
  // EvalProgram equals smart Eval of the program's TriAL translation.
  if (w_.datalog_op >= 0) {
    ++attempted_;
    const size_t i = static_cast<size_t>(w_.datalog_op);
    Result<trial::datalog::Program> p =
        trial::datalog::ParseProgram(w_.reads[i].text);
    Result<trial::ExprPtr> e =
        p.ok() ? trial::datalog::ProgramToTriAL(*p, *store_, "ans")
               : Result<trial::ExprPtr>(p.status());
    auto ev = NewEvaluator(w_.exec_threads, w_.adaptive);
    Result<TripleSet> r = e.ok() ? ev->Eval(*e, *store_)
                                 : Result<TripleSet>(e.status());
    if (!r.ok()) {
      Fail("ProgramToTriAL: " + r.status().ToString());
    } else if (Decode(*r, *store_) != reference_[i]) {
      Fail("EvalProgram differs from smart Eval of ProgramToTriAL");
    }
  }
}

void Bench::Profile() {
  // Per-operator self time: every distinct read op once more, profiled
  // (ExecutePlan(profile=true) + CollectTrace), weighted by how often
  // the traced warm passes ran it.
  uint64_t weight_total = 0;
  for (size_t c : tw_.count) weight_total += c;
  if (weight_total == 0) return;
  for (size_t i = 0; i < w_.reads.size(); ++i) {
    const ReadOp& op = w_.reads[i];
    if (op.kind == OpKind::kDatalog || tw_.count[i] == 0) continue;
    trial::plan::PlanPtr plan;
    Status st;
    if (op.kind == OpKind::kShortestPath) {
      plan = trial::plan::PlanShortestPath(*store_, "E", op.src, op.dst);
      st = trial::plan::ExecutePlan(*plan, *store_, limits_, true).status();
    } else {
      Result<trial::ExprPtr> e = trial::ParseTriAL(op.text, store_.get());
      if (!e.ok()) {
        st = e.status();
      } else if (w_.adaptive) {
        trial::plan::AdaptiveResult ar;
        st = trial::plan::ExecuteAdaptive(trial::Optimize(*e), *store_,
                                          limits_, true, &ar)
                 .status();
        plan = std::move(ar.plan);
      } else {
        plan = trial::plan::PlanExpr(trial::Optimize(*e), *store_);
        st = trial::plan::ExecutePlan(*plan, *store_, limits_, true).status();
      }
    }
    if (!st.ok() || plan == nullptr) {
      Fail(op.tmpl + ": profiled execution: " + st.ToString());
      continue;
    }
    const double wgt = static_cast<double>(tw_.count[i]) /
                       static_cast<double>(weight_total);
    for (const trial::plan::TraceSpan& s :
         trial::plan::CollectTrace(*plan).spans) {
      self_ms_[s.op] += wgt * Millis(s.self_ns);
      if (s.rows_known) max_q_error_ = std::max(max_q_error_, s.q_error);
    }
  }
}

void Bench::WriteProbe(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    SetTracing(args_.trace);
    write_ms_.push_back(TimedWrite());
    if (args_.trace && probe_writes_++ % kRebuildEvery == 0) {
      // The storage layer's rebuild after a write, timed explicitly.
      rebuild_ms_.push_back(BuildIndexes(*store_, "storage.rebuild"));
    }
  }
  SetTracing(false);
}

// ---- report -------------------------------------------------------------

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!out_.empty()) out_ += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
    out_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Geometric mean over templates of each template's median latency.
double TemplateGeomean(const Workload& w,
                       const std::vector<std::vector<double>>& per_op,
                       std::map<std::string, double>* medians) {
  std::map<std::string, std::vector<double>> by_tmpl;
  for (size_t i = 0; i < w.reads.size(); ++i) {
    auto& v = by_tmpl[w.reads[i].tmpl];
    v.insert(v.end(), per_op[i].begin(), per_op[i].end());
  }
  double log_sum = 0;
  size_t n = 0;
  for (const auto& [tmpl, v] : by_tmpl) {
    if (v.empty()) continue;
    double m = Median(v);
    if (medians != nullptr) (*medians)[tmpl] = m;
    log_sum += std::log(std::max(m, 1e-6));
    ++n;
  }
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

void Bench::Report() {
  MetricsJson m;
  std::map<std::string, double> tmpl_median;
  if (!args_.trace) {
    std::vector<double> all;
    for (const auto& v : warm_ms_) all.insert(all.end(), v.begin(), v.end());
    m.Add("setup_s", Median(setup_s_), "s");
    m.Add("cold_ms", Median(cold_ms_), "ms");
    m.Add("query_p50_ms", Quantile(all, 0.50), "ms");
    m.Add("query_p95_ms", Quantile(all, 0.95), "ms");
    m.Add("query_geomean_ms", TemplateGeomean(w_, warm_ms_, &tmpl_median),
          "ms");
    m.Add("ops_per_s", Ratio(static_cast<double>(warm_ops_), warm_seconds_),
          "1/s");
    m.Add("update_p50_ms", Median(write_ms_), "ms");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("store_bytes_per_triple", Ratio(store_bytes_, store_triples_),
          "B");
  } else {
    const LayerTotal none;
    auto total = [&](const char* name) {
      auto it = tw_.spans.find(name);
      return it == tw_.spans.end() ? none : it->second;
    };
    const RegistryView& reg = tw_.registry;
    const double cold_passes = static_cast<double>(cold_ms_.size());
    const double ops = static_cast<double>(tw_.ops);
    const double reads = static_cast<double>(tw_.read_ops);
    const double triples = static_cast<double>(store_triples_);
    m.Add("loader.load_ms", Median(load_ms_), "ms");
    m.Add("loader.triples_per_s", Ratio(triples, Median(load_ms_) * 1e-3),
          "1/s");
    m.Add("segment.save_ms", Median(save_ms_), "ms");
    m.Add("segment.open_ms", Median(open_ms_), "ms");
    m.Add("segment.decodes",
          Ratio(static_cast<double>(cold_registry_.Counter("segment.decodes")),
                cold_passes),
          "count");
    m.Add("segment.decode_ms",
          Ratio(Millis(cold_registry_.HistSum("segment.decode_ns")),
                cold_passes),
          "ms");
    m.Add("storage.index_build_ms", Median(index_build_ms_), "ms");
    m.Add("storage.rebuild_ms_per_write", Median(rebuild_ms_), "ms");
    LayerTotal parse = total("parser"), rewrite = total("optimizer");
    m.Add("parser.parse_us", Ratio(parse.ns * 1e-3, parse.calls), "us");
    m.Add("optimizer.rewrite_us", Ratio(rewrite.ns * 1e-3, rewrite.calls),
          "us");
    m.Add("plan.plan_us",
          Ratio(tw_.plan_ns * 1e-3, static_cast<double>(tw_.plan_calls)), "us");
    const double hits = static_cast<double>(reg.Counter("plan_cache.hits"));
    const double misses =
        static_cast<double>(reg.Counter("plan_cache.misses"));
    m.Add("plan.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
    m.Add("exec.exec_ms",
          Ratio(Millis(tw_.exec_ns), static_cast<double>(tw_.exec_ops)), "ms");
    m.Add("exec.rows_per_op", Ratio(static_cast<double>(tw_.rows), reads),
          "rows");
    // Per-operator self time; the constant leaves (EmptyRel,
    // UniverseRel) never run in these mixes.
    using trial::plan::PlanOp;
    for (PlanOp op : {PlanOp::kIndexScan, PlanOp::kSelectFilter,
                      PlanOp::kIndexProbeJoin, PlanOp::kHashJoin,
                      PlanOp::kMergeJoin, PlanOp::kUnionOp, PlanOp::kMinusOp,
                      PlanOp::kFixpointStar, PlanOp::kReachFastPath,
                      PlanOp::kReachIndexScan, PlanOp::kDijkstraScan}) {
      const char* name = trial::plan::PlanOpName(op);
      m.Add(std::string("exec.self_ms.") + name, self_ms_[name], "ms");
    }
    m.Add("exec.max_q_error", max_q_error_, "ratio");
    m.Add("adapt.replans",
          Ratio(static_cast<double>(cold_registry_.Counter("exec.replans")),
                cold_passes),
          "count");
    m.Add("adapt.replan_ms",
          Ratio(Millis(cold_registry_.HistSum("exec.replan_ns")), cold_passes),
          "ms");
    const double fb_hits = static_cast<double>(reg.Counter("feedback.hits"));
    const double fb_misses =
        static_cast<double>(reg.Counter("feedback.misses"));
    m.Add("adapt.feedback_hit_ratio", Ratio(fb_hits, fb_hits + fb_misses),
          "ratio");
    m.Add("reach.index_builds",
          Ratio(static_cast<double>(cold_registry_.Counter("reach.index_builds")),
                cold_passes),
          "count");
    m.Add("reach.index_build_ms",
          Ratio(Millis(cold_registry_.HistSum("reach.index_build_ns")),
                cold_passes),
          "ms");
    m.Add("reach.index_hits",
          Ratio(static_cast<double>(reg.Counter("reach.index_hits")), ops),
          "count/op");
    LayerTotal dl = total("datalog.eval");
    m.Add("datalog.eval_ms", Ratio(Millis(dl.ns), dl.calls), "ms");
    m.Add("datalog.fixpoint_rounds",
          Ratio(static_cast<double>(reg.Counter("datalog.fixpoint_rounds")),
                static_cast<double>(reg.Counter("datalog.programs"))),
          "count");
    m.Add("parallel.queue_wait_us",
          Ratio(reg.HistSum("pool.queue_wait_ns") * 1e-3, ops), "us");
    m.Add("parallel.tasks",
          Ratio(static_cast<double>(reg.Counter("pool.tasks")), ops),
          "count/op");
    m.Add("parallel.inline_runs",
          Ratio(static_cast<double>(reg.Counter("pool.inline_runs")), ops),
          "count/op");
    LayerTotal dec = total("decode");
    m.Add("decode.decode_ms", Ratio(Millis(dec.ns), dec.calls), "ms");
    m.Add("proc.minor_faults_per_op",
          Ratio(minor_faults_, static_cast<double>(warm_ops_)), "count/op");
    m.Add("proc.sys_cpu_share", Ratio(sys_cpu_s_, user_cpu_s_ + sys_cpu_s_),
          "ratio");
    // Tracing overhead: per template, traced vs untraced warm median.
    const double traced = TemplateGeomean(w_, warm_ms_traced_, nullptr);
    const double untraced = TemplateGeomean(w_, warm_ms_, &tmpl_median);
    m.Add("trace.overhead_pct", untraced > 0 ? (traced / untraced - 1) * 100 : 0,
          "%");
  }

  std::map<std::string, std::pair<double, double>> tmpl_rows;
  for (size_t i = 0; i < w_.reads.size(); ++i) {
    auto& r = tmpl_rows[w_.reads[i].tmpl];
    r.first += static_cast<double>(reference_[i].rows);
    r.second += 1;
  }
  std::string info = "{\"templates\": {";
  bool first = true;
  for (const auto& [tmpl, med] : tmpl_median) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"median_ms\": %.4f, \"rows\": %.0f}",
                  first ? "" : ", ", tmpl.c_str(), med,
                  tmpl_rows[tmpl].first / tmpl_rows[tmpl].second);
    info += buf;
    first = false;
  }
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.4f", i > 0 ? ", " : "", v[i]);
      out += buf;
    }
    return out + "]";
  };
  info += "}, \"setup_s\": " + list(setup_s_) +
          ", \"cold_ms\": " + list(cold_ms_) +
          ", \"triples\": " + std::to_string(static_cast<uint64_t>(store_triples_)) +
          ", \"document_bytes\": " + std::to_string(w_.document.size()) +
          ", \"warm_ops\": " + std::to_string(warm_ops_) +
          ", \"reads\": " + std::to_string(w_.reads.size()) +
          ", \"pass_ops\": " + std::to_string(cold_pass_.size()) + "}";

  std::string errors = "[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) errors += ", ";
    std::string e;
    for (char c : errors_[i]) {
      if (c == '"' || c == '\\') e.push_back('\\');
      e.push_back(c == '\n' ? ' ' : c);
    }
    errors += "\"" + e + "\"";
  }
  errors += "]";

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"errors\": %s, \"cold_fingerprint\": \"%s\", \"cold_rows\": %llu, "
      "\"cold_ops\": %zu, \"info\": %s, \"metrics\": %s}\n",
      w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
      args_.trace ? 1 : 0, failed_ == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), errors.c_str(),
      Hex(cold_chain_).c_str(), static_cast<unsigned long long>(cold_rows_),
      cold_pass_.size(), info.c_str(), m.str().c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  pass_rng_ = trial::Rng(w_.seed * 31 + 13);
  // kRounds rounds of set-up, cold pass, warm slice and write probe, so
  // every metric samples the whole run rather than one stretch of it.
  for (size_t round = 0; round < kRounds; ++round) {
    SetTracing(args_.trace);
    Status st = SetupOnce(round == 0);
    if (round == 0) {
      warm_ms_.assign(w_.reads.size(), {});
      warm_ms_traced_.assign(w_.reads.size(), {});
      tw_.count.assign(w_.reads.size(), 0);
    }
    // Each cold pass on its own fresh open of the snapshot.
    for (size_t k = 0; k < kColdPerRound && st.ok(); ++k) {
      if (k > 0) st = Open();
      if (st.ok()) ColdPass(static_cast<int>(round * kColdPerRound + k));
    }
    std::remove(snapshot_path_.c_str());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
    // The round's other set-ups are spread through its warm passes, so
    // setup_s samples the whole run like the warm metrics do.
    const size_t slices = w_.setups_per_round;
    for (size_t k = 0; k < slices; ++k) {
      if (k > 0) {
        SetTracing(args_.trace);
        st = SideSetup();
        if (!st.ok()) {
          std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
          return 2;
        }
      }
      WarmPhase(args_.seconds / static_cast<double>(kRounds * slices));
    }
    if (round + 1 == kRounds) {
      // Before the probe writes: they add triples that full-E reads see.
      SetTracing(args_.trace);
      Checks();
      if (args_.trace) Profile();
    }
    WriteProbe(kProbeWrites / kRounds);
  }
  if (args_.trace) {
    const std::string nesting = tracer_.CheckNesting();
    if (!nesting.empty()) Fail("trace: " + nesting);
    if (!args_.spans_path.empty()) {
      std::ofstream out(args_.spans_path);
      out << tracer_.ToJson();
      if (!out) Fail("cannot write " + args_.spans_path);
    }
  }
  Report();
  return failed_ == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::ParseArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "trial_perfbench: %s\n", err.c_str());
    return 2;
  }
  trial::Result<perfbench::Workload> w =
      perfbench::MakeWorkload(args.workload, args.seed);
  if (!w.ok()) {
    std::fprintf(stderr, "trial_perfbench: %s\n",
                 w.status().ToString().c_str());
    return 2;
  }
  perfbench::Bench bench(std::move(args), std::move(*w));
  return bench.Run();
}
