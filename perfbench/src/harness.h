// In-process harness shared by the workloads: one StreamRuntime per run
// with its standing population, a preloaded drain, an open-loop paced
// producer, and the fixed rate ladder built from it. Every published tick
// is stamped and recorded by the tick callback and verified afterwards
// against the engine-direct reference.
#ifndef LAHAR_PERFBENCH_HARNESS_H_
#define LAHAR_PERFBENCH_HARNESS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "runtime/executor.h"

namespace pb {

/// \brief One runtime over a fresh CloneDeclarations database.
class InprocRun {
 public:
  /// `max_ticks` bounds the ticks this run may publish; `max_queries`
  /// bounds how many results one tick may carry.
  InprocRun(const Inputs& in, size_t threads, size_t queue_capacity,
            lahar::Timestamp max_ticks, size_t max_queries);
  ~InprocRun();
  InprocRun(const InprocRun&) = delete;
  InprocRun& operator=(const InprocRun&) = delete;

  /// Builds the database and runtime, registers the standing population
  /// (each Register timed into `register_ms` when non-null) and pushes the
  /// tick-1 batch. Returns the elapsed seconds (the setup_s sample).
  double Setup(Samples* register_ms);
  /// Restores a checkpoint into a fresh runtime instead of registering;
  /// returns the Restore() duration in seconds.
  double SetupFromCheckpoint(const std::string& snapshot);

  lahar::StreamRuntime& runtime() { return *runtime_; }
  const Inputs& inputs() const { return in_; }

  /// Registers texts[text] (traced as runtime.register). Returns the id,
  /// or 0 on failure (counted by the caller).
  lahar::QueryId Register(size_t text, double* ms);
  lahar::Status Unregister(lahar::QueryId id, double* ms);
  /// Takes over another run's id -> text map (a restored runtime keeps the
  /// checkpointed run's ids).
  void AdoptIds(const InprocRun& other) {
    id_text_ = other.id_text_;
    standing_ids_ = other.standing_ids_;
  }

  /// Pushes a batch: TryPush first (a refusal counts as backpressure),
  /// then a blocking Push with a deadline. False when the deadline ran out.
  bool Push(lahar::TickBatch batch);

  /// Verifies every recorded result of ticks [from, to] bitwise and checks
  /// that each standing query is present.
  void Verify(lahar::Timestamp from, lahar::Timestamp to, Checker* checker);

  /// When the tick callback saw tick t; valid once WaitRecorded(t).
  int64_t publish_ns(lahar::Timestamp t) const { return publish_ns_[t]; }
  /// Waits until the tick callback has recorded tick t. WaitForTick can
  /// return before the callback for that tick has run.
  bool WaitRecorded(lahar::Timestamp t);
  uint64_t pushes() const { return pushes_; }
  uint64_t backpressured() const { return backpressured_; }
  size_t queue_depth_max() const { return queue_depth_max_; }
  /// Last tick whose batch is already queued: setup pushes tick 1; a
  /// restored run has pushed nothing past its checkpoint tick.
  lahar::Timestamp sent_through() const { return sent_through_; }

 private:
  void OnTick(const lahar::TickResult& r);

  const Inputs& in_;
  size_t threads_;
  size_t queue_capacity_;
  lahar::Timestamp max_ticks_;
  size_t max_queries_;
  std::unique_ptr<lahar::EventDatabase> db_;
  std::unique_ptr<lahar::StreamRuntime> runtime_;
  std::unordered_map<lahar::QueryId, size_t> id_text_;
  std::vector<lahar::QueryId> standing_ids_;
  lahar::Timestamp sent_through_ = 1;
  // Written only by the coordinator's tick callback; read after Stop, or
  // for ticks up to recorded_ (release/acquire) while running.
  std::atomic<lahar::Timestamp> recorded_{0};
  std::vector<int64_t> publish_ns_;
  std::vector<std::pair<lahar::QueryId, double>> results_;
  std::vector<uint32_t> result_count_;
  uint64_t pushes_ = 0;
  uint64_t backpressured_ = 0;
  size_t queue_depth_max_ = 0;
};

/// Preloads ticks sent_through()+1..n, then times Start() ..
/// WaitForTick(n). Returns seconds, or a negative value when the drain did
/// not complete.
double Drain(InprocRun* run, lahar::Timestamp n);

/// \brief Outcome of one open-loop pass.
struct OpenLoop {
  lahar::Timestamp last = 0;  // last tick sent
  Samples latency_us;         // publish - due, per tick
  Samples late_us;            // generator lateness, per tick
  double delivered_tps = 0;
  uint64_t backlog_end = 0;   // ticks due but unpublished at the last due
  bool complete = false;
};

/// Starts the runtime, then sends ticks 2..n on a fixed schedule of `rate`
/// ticks/s (each timed from its due time) and waits for all of them.
OpenLoop RunOpenLoop(InprocRun* run, double rate, lahar::Timestamp n);

/// \brief A fixed rate ladder: each rung is a fresh run at one rate.
struct RungResult {
  double rate = 0;
  OpenLoop loop;
  bool pass = false;
};
struct Ladder {
  std::vector<RungResult> rungs;
  double max_sustainable_tps = 0;  // delivered rate of the highest pass
};

/// Climbs `rates` (ascending), running `attempt(rate)` — one fresh
/// open-loop pass — per try, until a rung misses the p99 latency limit or
/// ends with a backlog above `limit_ms` worth of ticks. A rung passes when
/// one of two tries does: a rate the system sustains fails only through a
/// transient stall of the machine, which rarely strikes twice in a row.
Ladder ClimbLadder(const std::vector<double>& rates, double limit_ms,
                   const std::function<OpenLoop(double)>& attempt,
                   Report* report);

/// ClimbLadder over in-process runs. Each rung lasts `rung_seconds`
/// (capped at max_ticks ticks) and is verified bitwise.
Ladder RunLadder(const Inputs& in, const std::vector<double>& rates,
                 double rung_seconds, double limit_ms, size_t threads,
                 lahar::Timestamp max_ticks, Samples* setup_s,
                 Checker* checker, Report* report);

/// Registry metrics from RuntimeStats: prepared-plan dedup hits per
/// Register call (`registrations` counts every call the stats cover),
/// shared-step fraction and live sharing groups.
void ReportRegistryLayers(const lahar::RuntimeStats& s, size_t registrations,
                          Report* report);

/// Automaton, engine-memory and executor metrics from the stats of a drain
/// that took `drain_s` seconds on `threads` workers.
void ReportExecutorLayers(const lahar::RuntimeStats& s, double drain_s,
                          size_t threads, Report* report);

/// Adds the twin's per-layer metrics (engine.*.advance_ns, ingest.apply_us,
/// twin.self_coverage) from a traced engine-direct pass.
void ReportTwinLayers(const Inputs& in, const std::vector<size_t>& texts,
                      lahar::Timestamp ticks, Report* report);

/// analysis.prepare_us: Lahar::Prepare per text of the population.
void ReportPrepare(const Inputs& in, Report* report);

}  // namespace pb

#endif  // LAHAR_PERFBENCH_HARNESS_H_
