#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "engine/session.h"
#include "runtime/replay.h"
#include "sim/scenarios.h"

namespace pb {

using lahar::QueryClass;
using lahar::Timestamp;

namespace {

std::string Tag(size_t i) { return "'tag" + std::to_string(i + 1) + "'"; }

// Grounded Regular queries over `tags` tags: selections and one grounded
// sequence form, cycling tags so every stream is read.
std::string RegularText(size_t i, size_t tags) {
  const std::string t = Tag(i % tags);
  switch ((i / tags) % 3) {
    case 0:
      return "At(" + t + ", l : Room(l))";
    case 1:
      return "At(" + t + ", l : Hallway(l))";
    default:
      return "At(" + t + ", l1 : NotRoom(l1)); At(" + t + ", l2 : Room(l2))";
  }
}

// α-variant `v` of Extended template `k`: same structure, fresh variable
// names, so canonicalization maps every variant of a template to one
// sharing group.
std::string ExtendedText(size_t k, size_t v) {
  const std::string s = std::to_string(v);
  const std::string x = "x" + s, a = "a" + s, b = "b" + s;
  // Two subgoals sharing x: a single-subgoal template would classify as
  // Regular and evaluate every stream jointly instead of per key.
  static const char* kPairs[4][2] = {{"NotRoom", "Room"},
                                     {"Hallway", "CoffeeRoom"},
                                     {"Room", "Hallway"},
                                     {"Hallway", "Office"}};
  const char* const* p = kPairs[k % 4];
  return "At(" + x + ", " + a + " : " + p[0] + "(" + a + ")); At(" + x +
         ", " + b + " : " + p[1] + "(" + b + "))";
}

// Safe plans over independent streams (distinct-keys reading, Fig. 14).
std::string SafeText(size_t k) {
  return k % 2 == 0
             ? "At(p, l1); At(p, l2); At(q, l3)"
             : "At(p, l1 : Hallway(l1)); At(p, l2 : Room(l2)); At(q, l3)";
}

Inputs Generate(uint64_t seed, size_t tags, Timestamp ticks,
                lahar::StreamKind kind) {
  Inputs in;
  auto scenario = lahar::RandomWalkScenario(tags, ticks, seed);
  CheckOk(scenario.status(), "scenario");
  auto db = scenario->BuildDatabase(kind);
  CheckOk(db.status(), "build database");
  auto batches = lahar::ExtractBatches(**db);
  CheckOk(batches.status(), "extract batches");
  in.archive = std::move(*db);
  in.base = std::move(*batches);
  double bytes = 0;
  for (const lahar::TickBatch& b : in.base) {
    for (const lahar::StreamUpdate& u : b.updates) {
      bytes += 8.0 * static_cast<double>(u.marginal.size());
      if (u.cpt) {
        bytes += 8.0 * static_cast<double>(u.cpt->rows() * u.cpt->cols());
      }
    }
  }
  in.payload_bytes_per_tick = bytes / static_cast<double>(in.base.size());
  in.session.plan.assume_distinct_keys = true;
  return in;
}

const char* AdvanceSpanName(int query_class) {
  switch (static_cast<QueryClass>(query_class)) {
    case QueryClass::kRegular:
      return "engine.regular.advance";
    case QueryClass::kExtendedRegular:
      return "engine.extended.advance";
    case QueryClass::kSafe:
      return "engine.safe.advance";
    default:
      return "engine.sampling.advance";
  }
}

}  // namespace

lahar::TickBatch Inputs::Batch(Timestamp t) const {
  lahar::TickBatch b = base[(t - 1) % base.size()];
  b.t = t;
  return b;
}

const lahar::TickBatch& Inputs::Stamped(Timestamp t) {
  lahar::TickBatch& b = base[(t - 1) % base.size()];
  b.t = t;
  return b;
}

Inputs MakeArchivedInputs(uint64_t seed, size_t tags, Timestamp ticks,
                          size_t queries) {
  const int64_t start = NowNs();
  Inputs in = Generate(seed, tags, ticks, lahar::StreamKind::kSmoothed);
  const size_t extended = queries * 3 / 10;
  for (size_t i = 0; i + extended < queries; ++i) {
    in.texts.push_back(RegularText(i, tags));
  }
  // Three templates, each registered under several α-renamings.
  for (size_t i = 0; i < extended; ++i) {
    in.texts.push_back(ExtendedText(i % 3, i / 3));
  }
  in.num_standing = in.texts.size();
  ComputeReference(&in, ticks);
  in.gen_s = static_cast<double>(NowNs() - start) / 1e9;
  return in;
}

Inputs MakeWireInputs(uint64_t seed, size_t tags, Timestamp base_ticks,
                      Timestamp ticks, size_t queries) {
  const int64_t start = NowNs();
  Inputs in = Generate(seed, tags, base_ticks, lahar::StreamKind::kFiltered);
  in.cyclic = true;
  for (size_t i = 0; i < queries; ++i) {
    in.texts.push_back("At(" + Tag(i % tags) + ", l : " +
                       (i % 2 == 0 ? "Room" : "Hallway") + "(l))");
  }
  in.num_standing = in.texts.size();
  ComputeReference(&in, ticks);
  in.gen_s = static_cast<double>(NowNs() - start) / 1e9;
  return in;
}

Inputs MakeChurnInputs(uint64_t seed, size_t tags, Timestamp base_ticks,
                       Timestamp ticks, size_t standing, size_t variants) {
  const int64_t start = NowNs();
  Inputs in = Generate(seed, tags, base_ticks, lahar::StreamKind::kFiltered);
  in.cyclic = true;
  const size_t safe = standing / 10;
  const size_t extended = standing / 5;
  for (size_t i = 0; i + safe + extended < standing; ++i) {
    in.texts.push_back(RegularText(i, tags));
  }
  for (size_t i = 0; i < extended; ++i) {
    in.texts.push_back(ExtendedText(i % 4, i / 4));
  }
  for (size_t i = 0; i < safe; ++i) in.texts.push_back(SafeText(i));
  in.num_standing = in.texts.size();
  const size_t first_variant = (extended + 3) / 4;
  for (size_t k = 0; k < variants; ++k) {
    in.texts.push_back(ExtendedText(k % 4, first_variant + k / 4));
  }
  ComputeReference(&in, ticks);
  in.gen_s = static_cast<double>(NowNs() - start) / 1e9;
  return in;
}

TwinRun RunTwin(const Inputs& in, const std::vector<size_t>& texts,
                Timestamp ticks) {
  TwinRun out;
  auto clone = lahar::CloneDeclarations(*in.archive);
  CheckOk(clone.status(), "clone declarations");
  lahar::Lahar lahar(clone->get(), in.session);
  std::vector<std::unique_ptr<lahar::QuerySession>> sessions;
  std::vector<const char*> span_names;
  for (size_t i : texts) {
    auto session = lahar.OpenSession(in.texts[i]);
    CheckOk(session.status(), "twin session for " + in.texts[i]);
    out.classes.push_back(static_cast<int>((*session)->query_class()));
    span_names.push_back(AdvanceSpanName(out.classes.back()));
    sessions.push_back(std::move(*session));
  }
  out.probs.assign(texts.size(), std::vector<double>(ticks + 1, 0.0));
  lahar::TickBatch scratch;
  const int64_t start = NowNs();
  for (Timestamp t = 1; t <= ticks; ++t) {
    ScopedSpan tick_span("twin.tick", t);
    const lahar::TickBatch* batch;
    if (in.cyclic) {
      // Cycled bases are re-stamped (senders stamp them in place, too):
      // generator work, kept out of the spans the self-time attribution
      // sums.
      scratch = in.base[(t - 1) % in.base.size()];
      scratch.t = t;
      batch = &scratch;
    } else {
      batch = &in.base[t - 1];
    }
    {
      ScopedSpan apply_span("ingest.apply", t);
      CheckOk(lahar::ApplyBatch(clone->get(), *batch, nullptr), "twin apply");
    }
    for (size_t q = 0; q < sessions.size(); ++q) {
      ScopedSpan advance_span(span_names[q], t);
      auto p = sessions[q]->Advance();
      CheckOk(p.status(), "twin advance " + in.texts[texts[q]]);
      out.probs[q][t] = *p;
    }
  }
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

void ComputeReference(Inputs* in, Timestamp ticks) {
  std::vector<size_t> all(in->texts.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  TwinRun twin = RunTwin(*in, all, ticks);
  in->expected = std::move(twin.probs);
  in->classes = std::move(twin.classes);
  in->ticks = ticks;
}

bool PerturbedValueIsFlagged(const Inputs& in) {
  Checker checker(/*quiet=*/true);
  const double want = in.expected[0][1];
  const double perturbed =
      std::nextafter(want, std::numeric_limits<double>::infinity());
  auto where = [] { return std::string("self-check"); };
  const bool exact_passes = checker.Expect(want, want, where);
  const bool perturbed_passes =
      checker.Expect(perturbed, want, where);
  return exact_passes && !perturbed_passes && checker.mismatches() == 1;
}

std::string DescribePopulation(const Inputs& in, size_t count) {
  size_t n[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < count; ++i) n[in.classes[i] & 3]++;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu queries: %zu regular, %zu extended, %zu safe, "
                "%zu sampled",
                count, n[0], n[1], n[2], n[3]);
  return buf;
}

}  // namespace pb
