#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/generators.h"
#include "loader/ntriples_writer.h"
#include "rdf/ntriples.h"

namespace perfbench {
namespace {

using trial::Rng;
using trial::Status;
using trial::TripleStore;

// ---- sizes -------------------------------------------------------------

// sp2b_read: one relation E of 10^6 SP2Bench-flavoured triples.
constexpr size_t kSp2bReadTriples = 1'000'000;
constexpr double kSp2bZipfP = 1.2;
constexpr double kSp2bZipfO = 0.4;
const char* const kSp2bBase = "http://db.example.org/";

// graph_nav: kRegions disjoint copies of the Figure 1 transport shape
// (cities on a line plus random extra hops, services as edge middles,
// a part_of hierarchy up to operator companies shared by all regions).
constexpr size_t kRegions = 1000;
constexpr size_t kCitiesPerRegion = 30;
constexpr size_t kServicesPerRegion = 6;
const char* const kNavBase = "http://transport.example.org/";

const char* const kWriteBase = "http://writes.example.org/";
constexpr size_t kWriteBatch = 16;

// The recursive ReachTripleDatalog program of bench/bench_datalog.cc:
// same-label reachability.
const char* const kReachProgram =
    "ans(X, Y, Z) :- E(X, Y, Z).\n"
    "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), Y = P.\n";

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x9e3779b97f4a7c15ULL + stream);
  return r.Next();
}

std::string Quote(const std::string& name) { return "\"" + name + "\""; }

std::string Sel(int pos, const std::string& name) {
  return "sigma[" + std::to_string(pos) + "=" + Quote(name) + "](E)";
}

// ---- documents ----------------------------------------------------------

std::string Sp2bDocument(uint64_t seed, size_t triples) {
  trial::SyntheticNTriplesOptions o;
  o.num_triples = triples;
  o.zipf_p = kSp2bZipfP;
  o.zipf_o = kSp2bZipfO;
  o.base = kSp2bBase;
  o.seed = SubSeed(seed, 1);
  return trial::SyntheticNTriples(o);
}

// Region-qualified name of a TransportNetwork object: companies and
// the part_of predicate are shared, everything else is per region.
std::string NavName(size_t region, std::string_view local) {
  std::string out = kNavBase;
  if (local.rfind("co", 0) != 0 && local != "part_of") {
    out += "r" + std::to_string(region) + "/";
  }
  out.append(local.data(), local.size());
  return out;
}

std::string NavDocument(uint64_t seed) {
  TripleStore all;
  trial::RelId e = all.AddRelation("E");
  for (size_t k = 0; k < kRegions; ++k) {
    trial::TransportOptions t;
    t.num_cities = kCitiesPerRegion;
    t.num_services = kServicesPerRegion;
    t.seed = SubSeed(seed, 100 + k);
    TripleStore region = trial::TransportNetwork(t);
    for (const trial::Triple& tr : region.Relation(0)) {
      all.Add(e, all.InternObject(NavName(k, region.ObjectName(tr.s))),
              all.InternObject(NavName(k, region.ObjectName(tr.p))),
              all.InternObject(NavName(k, region.ObjectName(tr.o))));
    }
  }
  return trial::SerializeNTriples(all);
}

// ---- op mixes -----------------------------------------------------------

// Draws an object name via `draw` until it occurs in `store` (a drawn
// vocabulary term can be absent from a finite sample of the document).
template <typename Draw>
std::string Existing(const TripleStore& store, Draw draw) {
  for (;;) {
    std::string name = draw();
    if (store.FindObject(name) != trial::kInvalidIntern) return name;
  }
}

// Zipf-like per-pass weights over a template's instances: the first
// instance of each template runs `hot` times a pass, the next hot/2,
// ..., at least once.  Hot texts recur within a pass, so the plan
// cache sees hits as well as misses.
size_t InstanceWeight(size_t i, size_t hot) {
  return std::max<size_t>(1, hot / (i + 1));
}

void AddTrial(Workload* w, const char* tmpl, std::string text,
              size_t weight) {
  ReadOp op;
  op.tmpl = tmpl;
  op.text = std::move(text);
  op.weight = weight;
  w->reads.push_back(std::move(op));
}

void Sp2bReads(const TripleStore& store, Workload* w) {
  Rng rng(SubSeed(w->seed, 2));
  const size_t n_s = w->triples / 8 + 4;
  const size_t n_o = w->triples / 8 + 4;
  const std::string base = kSp2bBase;
  trial::ZipfRankSampler zipf_o(n_o, kSp2bZipfO);
  auto subject = [&] {
    return Existing(store, [&] {
      return base + "s" + std::to_string(rng.Below(n_s));
    });
  };
  auto object = [&] {
    return Existing(store, [&] {
      return base + "o" + std::to_string(zipf_o.Sample(&rng));
    });
  };
  // Predicate for instance i of n: its Zipf rank is drawn near the
  // middle of the i-th of n log-spaced strata of [lo, hi).  The rank
  // fixes the selectivity (rank r covers ~1/(r+1)^1.2 of E), so
  // stratifying keeps each template's spread of costs, and with it the
  // latency percentiles, the same for every seed.
  auto predicate = [&](size_t lo, size_t hi, size_t i, size_t n) {
    return Existing(store, [&] {
      const double u = (static_cast<double>(i) + 0.4 + 0.2 * rng.Unit()) /
                       static_cast<double>(n);
      const double r = static_cast<double>(lo + 1) *
                       std::pow(static_cast<double>(hi + 1) /
                                    static_cast<double>(lo + 1), u);
      return base + "p" + std::to_string(static_cast<size_t>(r) - 1);
    });
  };
  const std::string chain = " JOIN[1,2,3'; 3=1'] E)";
  // Per pass: 36 sub-millisecond ops (lookups, anchored chains, small
  // unions), 66 selective joins and differences of 0.3-30 ms, and the
  // two heavy ops.  p50 falls inside the join band (which starts at 35%
  // of a pass), p95 among its p0 differences, never on a boundary
  // between two classes.
  for (size_t i = 0; i < 10; ++i) {
    AddTrial(w, "s_lookup", Sel(1, subject()), InstanceWeight(i, 2));
  }
  for (size_t i = 0; i < 6; ++i) {
    AddTrial(w, "o_lookup", Sel(3, object()), InstanceWeight(i, 2));
  }
  for (size_t i = 0; i < 6; ++i) {
    AddTrial(w, "chain2", "(" + Sel(1, subject()) + chain,
             InstanceWeight(i, 2));
  }
  for (size_t i = 0; i < 5; ++i) {
    AddTrial(w, "chain3", "((" + Sel(1, subject()) + chain + chain,
             InstanceWeight(i, 2));
  }
  for (size_t i = 0; i < 4; ++i) {
    AddTrial(w, "union", "(" + Sel(1, subject()) + " u " + Sel(3, object()) + ")",
             InstanceWeight(i, 2));
  }
  const size_t n = 20;
  for (size_t i = 0; i < n; ++i) {
    AddTrial(w, "pred_join", "(" + Sel(2, predicate(8, 400, i, n)) + chain,
             InstanceWeight(i, 3));
  }
  for (size_t i = 0; i < n; ++i) {
    AddTrial(w, "subject_star",
             "(" + Sel(2, predicate(2, 30, i, n)) + " JOIN[1,2,3'; 1=1'] " +
                 Sel(2, predicate(5, 60, n - 1 - i, n)) + ")",
             InstanceWeight(i, 3));
  }
  for (size_t i = 0; i < n; ++i) {
    AddTrial(w, "difference",
             "(" + Sel(1, subject()) + " - " + Sel(2, predicate(0, 10, i, n)) +
                 ")",
             InstanceWeight(i, 3));
  }
  // The big union: the two hottest predicates, ~25% of E decoded.
  AddTrial(w, "big_union",
           "(" + Sel(2, base + "p0") + " u " + Sel(2, base + "p1") + ")", 1);
  // The correlated chain: the hottest predicate is priced by the
  // uniformity assumption at a tiny fraction of its real share.
  w->correlated_op = static_cast<int>(w->reads.size());
  AddTrial(w, "correlated", "((" + Sel(2, base + "p0") + chain + chain, 1);
}

// Every drawn name exists: cities form a line, services head part_of
// chains.
void NavReads(Workload* w) {
  Rng rng(SubSeed(w->seed, 3));
  // Per pass: 100 ops.  p50 falls inside shortest_path (33-69% of a
  // pass) and p95 inside reach_any (79-97%), the steadiest class; the
  // three heaviest ops run once a pass, 3% of ops, so p95 stays clear
  // of them.
  AddTrial(w, "reach_any", "(E JOIN[1,2,3'; 3=1'])*", 18);
  AddTrial(w, "reach_same", "(E JOIN[1,2,3'; 3=1', 2=2'])*", 10);
  AddTrial(w, "lift_star", "(E JOIN[1,3',3; 2=1'])*", 1);
  AddTrial(w, "query_q",
           "((E JOIN[1,3',3; 2=1'])* JOIN[1,2,3'; 3=1', 2=2'])*", 1);
  for (size_t i = 0; i < 3; ++i) {
    std::string svc = NavName(rng.Below(kRegions),
                              "svc" + std::to_string(
                                          rng.Below(kServicesPerRegion)));
    AddTrial(w, "service_reach",
             "(" + Sel(2, svc) + " JOIN[1,2,3'; 3=1'])*", 11);
  }
  for (size_t i = 0; i < 4; ++i) {
    size_t region = rng.Below(kRegions);
    size_t a = rng.Below(kCitiesPerRegion / 2);
    size_t b = kCitiesPerRegion / 2 + rng.Below(kCitiesPerRegion / 2);
    ReadOp op;
    op.kind = OpKind::kShortestPath;
    op.tmpl = "shortest_path";
    op.src = NavName(region, "city" + std::to_string(a));
    op.dst = NavName(region, "city" + std::to_string(b));
    op.text = op.src + " -> " + op.dst;
    op.weight = 9;
    w->reads.push_back(std::move(op));
  }
  ReadOp dl;
  dl.kind = OpKind::kDatalog;
  dl.tmpl = "datalog_reach";
  dl.text = kReachProgram;
  dl.weight = 1;
  w->datalog_op = static_cast<int>(w->reads.size());
  w->reads.push_back(std::move(dl));
}

}  // namespace

trial::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "sp2b_read") {
    w.adaptive = true;
    w.triples = kSp2bReadTriples;
    w.document = Sp2bDocument(seed, w.triples);
  } else if (name == "graph_nav") {
    w.exec_threads = 2;
    w.setups_per_round = 8;
    w.document = NavDocument(seed);
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

void MakeReads(const TripleStore& store, Workload* w) {
  w->reads.clear();
  if (w->name == "graph_nav") {
    NavReads(w);
  } else {
    Sp2bReads(store, w);
  }
}

std::vector<int> MakePass(const Workload& w, Rng* rng) {
  std::vector<int> pass;
  for (size_t i = 0; i < w.reads.size(); ++i) {
    pass.insert(pass.end(), w.reads[i].weight, static_cast<int>(i));
  }
  for (size_t i = pass.size(); i > 1; --i) {
    std::swap(pass[i - 1], pass[rng->Below(i)]);
  }
  return pass;
}

WriteBatch MakeWriteBatch(size_t k, Rng* rng) {
  const std::string base = kWriteBase;
  WriteBatch b;
  b.subject = base + "s" + std::to_string(k);
  for (size_t i = 0; i < kWriteBatch; ++i) {
    b.triples.push_back(
        {b.subject, base + "p" + std::to_string(rng->Below(4)),
         base + "o" + std::to_string(k) + "_" + std::to_string(i)});
  }
  return b;
}

}  // namespace perfbench
