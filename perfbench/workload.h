#pragma once
// Seeded inputs shared by the traffic generator (gen.cpp) and the per-layer
// probe (layers.cpp): both regenerate the identical subscription population
// and message stream from (workload, seed), so the layer probe times the
// index/serde/partition calls on exactly the inputs the cluster saw.
//
// The inputs come from the repository's own generators of the paper's
// workload (§IV-B, workload/generators.h): predicate centres follow a
// cropped normal (sigma 250) around a hot spot that differs per dimension,
// message values are uniform. Only the predicate width is set per workload,
// to reach its matches per publish. The oracle form (Boxes/Points) is a
// plain copy of the generated values; Boxes::contains re-implements the
// half-open range test, so the oracle shares no matching code with the
// system under test.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "attr/schema.h"
#include "workload/generators.h"

namespace perfbench {

constexpr int kDims = 4;
constexpr double kDomain = 1000.0;  // noded's default schema: 4 x [0,1000)
constexpr double kSigma = 250.0;    // paper's sigma of predicate centres

/// One benchmark workload. Every field is recorded in the run's provenance.
struct Workload {
  std::string name;
  std::uint32_t subs = 0;     ///< population installed at setup
  double width = 0.0;         ///< predicate width (before domain clipping)
  std::uint32_t payload = 0;  ///< publish payload bytes
  double rate = 0.0;          ///< open-loop publishes per second
  std::uint32_t window = 0;   ///< closed-loop outstanding publishes
};

// Widths give, with the paper's sigma of 250 and clipping at the domain
// edges, about 9.4 matches per publish for selective and 260 for fanout.
inline Workload workload_by_name(const std::string& name) {
  if (name == "selective") return {name, 100000, 100.0, 64, 2000.0, 64};
  if (name == "fanout") return {name, 2000, 690.0, 256, 200.0, 8};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Subscription boxes in SoA form: lo[d][i], hi[d][i], half-open [lo, hi).
struct Boxes {
  std::vector<double> lo[kDims];
  std::vector<double> hi[kDims];
  std::size_t size() const { return lo[0].size(); }
  bool contains(std::size_t i, const double* v) const {
    for (int d = 0; d < kDims; ++d) {
      if (!(lo[d][i] <= v[d] && v[d] < hi[d][i])) return false;
    }
    return true;
  }
};

/// Message points, row-major: values[i * kDims + d].
struct Points {
  std::vector<double> values;
  std::size_t size() const { return values.size() / kDims; }
  const double* at(std::size_t i) const { return &values[i * kDims]; }
};

/// All generated inputs of one run. Subscriptions and messages come from
/// independent seeds, so the population does not shift when the message
/// count changes.
struct Inputs {
  std::vector<bluedove::Subscription> subs;  ///< setup population, in order
  Boxes boxes;                               ///< the same predicates, SoA
  Points msgs;                               ///< publishes, in send order
};

inline Inputs make_inputs(const Workload& w, std::uint64_t seed,
                          std::size_t messages) {
  const bluedove::AttributeSchema schema =
      bluedove::AttributeSchema::uniform(kDims, kDomain);
  bluedove::SubscriptionWorkload sw;
  sw.schema = schema;
  sw.predicate_width = w.width;
  sw.sigma = kSigma;
  bluedove::MessageWorkload mw;
  mw.schema = schema;
  Inputs in;
  in.subs = bluedove::SubscriptionGenerator(sw, seed * 4 + 1).batch(w.subs);
  for (int d = 0; d < kDims; ++d) {
    in.boxes.lo[d].reserve(in.subs.size());
    in.boxes.hi[d].reserve(in.subs.size());
    for (const bluedove::Subscription& s : in.subs) {
      in.boxes.lo[d].push_back(s.ranges[d].lo);
      in.boxes.hi[d].push_back(s.ranges[d].hi);
    }
  }
  bluedove::MessageGenerator msg_gen(mw, seed * 4 + 3);
  in.msgs.values.reserve(messages * kDims);
  for (std::size_t i = 0; i < messages; ++i) {
    const bluedove::Message m = msg_gen.next();
    in.msgs.values.insert(in.msgs.values.end(), m.values.begin(),
                          m.values.end());
  }
  return in;
}

}  // namespace perfbench
