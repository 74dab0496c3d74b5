// Workload inputs, generated once per seed outside every timed region:
// simulated streams (sim + inference), the per-tick batches producers
// send, the query populations, and the engine-direct reference ("twin")
// that every delivered µ(q@t) is compared against bitwise.
#ifndef LAHAR_PERFBENCH_INPUTS_H_
#define LAHAR_PERFBENCH_INPUTS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/lahar.h"
#include "runtime/ingest.h"

namespace pb {

/// \brief Everything one workload run needs that is not the system under
/// test. `texts` lists every query the run may register (standing ones
/// first); `expected[i][t]` is the twin's µ(texts[i]@t).
struct Inputs {
  std::unique_ptr<lahar::EventDatabase> archive;  // declarations + data
  std::vector<lahar::TickBatch> base;             // base[i] covers tick i+1
  bool cyclic = false;  // ticks past base.size() reuse base, re-stamped
  lahar::LaharOptions session;
  std::vector<std::string> texts;
  size_t num_standing = 0;
  std::vector<std::vector<double>> expected;
  std::vector<int> classes;    // lahar::QueryClass per text
  lahar::Timestamp ticks = 0;  // ticks the reference covers
  double gen_s = 0;
  double payload_bytes_per_tick = 0;

  /// The batch for tick t (a copy; re-stamped when the base cycles).
  lahar::TickBatch Batch(lahar::Timestamp t) const;
  /// The base batch carrying tick t's payload, re-stamped in place — the
  /// allocation-free form for single-threaded senders that only read it.
  const lahar::TickBatch& Stamped(lahar::Timestamp t);
  double Expected(size_t text, lahar::Timestamp t) const {
    return expected[text][t];
  }
};

/// Smoothed Markovian streams (archived regime): `tags` random-walking tags,
/// `ticks` timesteps, 70% grounded Regular / 30% Extended population of
/// `queries` built from α-equivalent templates.
Inputs MakeArchivedInputs(uint64_t seed, size_t tags, lahar::Timestamp ticks,
                          size_t queries);

/// Particle-filtered independent streams over `tags` tags with a base of
/// `base_ticks` timesteps cycled up to `ticks`, and `queries` grounded
/// Regular selections.
Inputs MakeWireInputs(uint64_t seed, size_t tags, lahar::Timestamp base_ticks,
                      lahar::Timestamp ticks, size_t queries);

/// Filtered streams with a 70/20/10 Regular/Extended/Safe standing
/// population followed by the churn texts: `variants` α-variants of the
/// Extended templates (texts[num_standing + k] is variant k) and the
/// standing Safe texts, which churn re-registers verbatim.
Inputs MakeChurnInputs(uint64_t seed, size_t tags, lahar::Timestamp base_ticks,
                       lahar::Timestamp ticks, size_t standing,
                       size_t variants);

/// \brief Result of one engine-direct pass: one QuerySession per text on a
/// CloneDeclarations clone, fed tick by tick through ApplyBatch.
struct TwinRun {
  double wall_s = 0;
  std::vector<std::vector<double>> probs;  // [text][t], t in 1..ticks
  std::vector<int> classes;                // lahar::QueryClass per text
};

/// Runs the twin over ticks 1..ticks. With tracing on, every ApplyBatch is
/// an `ingest.apply` span and every Advance an `engine.<class>.advance`
/// span, both children of a `twin.tick` span.
TwinRun RunTwin(const Inputs& in, const std::vector<size_t>& texts,
                lahar::Timestamp ticks);

/// Fills in.expected / in.ticks from an untraced twin pass over all texts.
void ComputeReference(Inputs* in, lahar::Timestamp ticks);

/// Self-check that the comparison is not vacuous: a value one ulp away
/// from a reference value must be flagged. Returns true when it is.
bool PerturbedValueIsFlagged(const Inputs& in);

/// Human-readable population summary ("64 queries: 45 regular, ...").
std::string DescribePopulation(const Inputs& in, size_t count);

}  // namespace pb

#endif  // LAHAR_PERFBENCH_INPUTS_H_
