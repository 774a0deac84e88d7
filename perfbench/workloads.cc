#include "workloads.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "ast/builder.h"

namespace perfbench {

namespace {

/// SplitMix64: a small generator whose output is fixed by the seed on every
/// platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

using Adj = std::vector<std::vector<int>>;

/// Nodes reachable from `from` by one or more edges (a node on a cycle
/// through `from` reaches itself), sorted.
std::vector<int> Reach(const Adj& adj, int from) {
  std::vector<char> seen(adj.size(), 0);
  std::deque<int> queue;
  for (int next : adj[static_cast<size_t>(from)]) {
    if (!seen[static_cast<size_t>(next)]) {
      seen[static_cast<size_t>(next)] = 1;
      queue.push_back(next);
    }
  }
  while (!queue.empty()) {
    int node = queue.front();
    queue.pop_front();
    for (int next : adj[static_cast<size_t>(node)]) {
      if (!seen[static_cast<size_t>(next)]) {
        seen[static_cast<size_t>(next)] = 1;
        queue.push_back(next);
      }
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

Tuple Ints(std::initializer_list<int64_t> values) {
  std::vector<Value> out;
  for (int64_t v : values) out.push_back(Value::Int(v));
  return Tuple(std::move(out));
}

std::string Part(int i) { return "p" + std::to_string(i); }

Tuple Parts(int a, int b) {
  return Tuple({Value::String(Part(a)), Value::String(Part(b))});
}

std::vector<Tuple> Sorted(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

/// Bulk-load statements, at most 500 tuples each (each statement is one
/// atomic batch).
std::string InsertStatements(const std::string& relation,
                             const std::vector<Tuple>& tuples) {
  std::string out;
  for (size_t i = 0; i < tuples.size(); i += 500) {
    out += "INSERT INTO " + relation + " ";
    size_t end = std::min(tuples.size(), i + 500);
    for (size_t j = i; j < end; ++j) {
      if (j > i) out += ", ";
      out += tuples[j].ToString();
    }
    out += ";\n";
  }
  return out;
}

/// `count` class indices with exact shares `weights` (largest remainder),
/// shuffled by `rng`.
std::vector<int> ClassSequence(const std::vector<int>& weights, int count,
                               Rng* rng) {
  int total = 0;
  for (int w : weights) total += w;
  std::vector<int> out;
  std::vector<std::pair<int, int>> remainders;
  for (size_t c = 0; c < weights.size(); ++c) {
    int n = weights[c] * count / total;
    out.insert(out.end(), static_cast<size_t>(n), static_cast<int>(c));
    remainders.emplace_back(-(weights[c] * count % total),
                            static_cast<int>(c));
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t i = 0; out.size() < static_cast<size_t>(count); ++i) {
    out.push_back(remainders[i % remainders.size()].second);
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(rng->Below(
                              static_cast<int64_t>(i)))]);
  }
  return out;
}

/// `n` distinct constants from (result size, constant) pairs, stratified by
/// result size: the pairs, sorted, are cut into `n` strata of equal size and
/// one constant is drawn from each; the draws are shuffled. Needs `n` no
/// larger than the number of pairs.
std::vector<int> Stratified(std::vector<std::pair<size_t, int>> keyed, int n,
                            Rng* rng) {
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> out;
  size_t size = keyed.size();
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    size_t lo = size * i / static_cast<size_t>(n);
    size_t hi = size * (i + 1) / static_cast<size_t>(n);
    out.push_back(keyed[lo + static_cast<size_t>(rng->Below(
                                 static_cast<int64_t>(hi - lo)))].second);
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(rng->Below(
                              static_cast<int64_t>(i)))]);
  }
  return out;
}

/// Random digraph on `comps` disjoint components of `size` nodes with
/// `per_node` out-edges per node on average (no self loops, no duplicates).
std::vector<std::pair<int, int>> ComponentEdges(int comps, int size,
                                                double per_node, Rng* rng) {
  std::set<std::pair<int, int>> edges;
  int per_comp = static_cast<int>(size * per_node);
  for (int c = 0; c < comps; ++c) {
    int base = c * size;
    int added = 0;
    while (added < per_comp) {
      int a = base + static_cast<int>(rng->Below(size));
      int b = base + static_cast<int>(rng->Below(size));
      if (a == b || !edges.emplace(a, b).second) continue;
      ++added;
    }
  }
  return {edges.begin(), edges.end()};
}

// ---------------------------------------------------------------------------
// recursive-analytics: bound recursive queries on the generic semi-naive
// engine, constants drawn from domains far larger than the 64-entry cache.

constexpr int kWrComps = 20, kWrSize = 50, kWrThreshold = 60;
constexpr double kWrPerNode = 3.0;
constexpr int kCadComps = 12, kCadSize = 72;
constexpr double kCadInfront = 1.2, kCadOntop = 0.6;
constexpr int kSgTrees = 6, kSgFanout = 3, kSgDepth = 5;
constexpr int kBomProducts = 10, kBomLayers = 8, kBomWidth = 10,
              kBomFanout = 3;
constexpr int kRaOpsPerSecond = 11;
constexpr int kRaPasses = 16;

std::unique_ptr<Workload> RecursiveAnalytics(uint64_t seed, int seconds) {
  auto w = std::make_unique<Workload>();
  w->name = "recursive-analytics";
  w->passes = kRaPasses;
  w->classes = {{"reach", Metric::kQuery},
                {"ahead", Metric::kQuery},
                {"same_generation", Metric::kQuery},
                {"bom", Metric::kQuery}};
  // The data set is the same for every seed; the seed draws the query
  // constants and the op order. Closure sizes of random graphs differ a lot
  // between draws, so graphs drawn per seed would make the spread between
  // seeds measure the data rather than the engine.
  Rng data_rng(0x52414e41ULL);
  Rng rng(seed ^ 0x52414e41ULL);

  // Weight-filtered linear closure: W(src, dst, w), edges with w < 60 only.
  int wr_nodes = kWrComps * kWrSize;
  Adj wr_adj(static_cast<size_t>(wr_nodes));
  std::vector<Tuple> wr_tuples;
  for (auto [a, b] :
       ComponentEdges(kWrComps, kWrSize, kWrPerNode, &data_rng)) {
    int64_t weight = data_rng.Below(100);
    wr_tuples.push_back(Ints({a, b, weight}));
    if (weight < kWrThreshold) wr_adj[static_cast<size_t>(a)].push_back(b);
  }

  // CAD scene (section 3.1): Infront and Ontop over the same parts.
  int cad_nodes = kCadComps * kCadSize;
  Adj any_adj(static_cast<size_t>(cad_nodes));
  Adj infront_adj(static_cast<size_t>(cad_nodes));
  std::vector<Tuple> infront, ontop;
  for (auto [a, b] :
       ComponentEdges(kCadComps, kCadSize, kCadInfront, &data_rng)) {
    infront.push_back(Parts(a, b));
    infront_adj[static_cast<size_t>(a)].push_back(b);
    any_adj[static_cast<size_t>(a)].push_back(b);
  }
  for (auto [a, b] :
       ComponentEdges(kCadComps, kCadSize, kCadOntop, &data_rng)) {
    ontop.push_back(Parts(a, b));
    any_adj[static_cast<size_t>(a)].push_back(b);
  }

  // Forest of k-ary trees: Par(child, parent), node ids in BFS order.
  std::vector<int> depth, tree_of;
  std::vector<Tuple> par;
  for (int t = 0; t < kSgTrees; ++t) {
    int root = static_cast<int>(depth.size());
    depth.push_back(0);
    tree_of.push_back(t);
    for (int node = root; node < static_cast<int>(depth.size()); ++node) {
      if (depth[static_cast<size_t>(node)] == kSgDepth) continue;
      for (int k = 0; k < kSgFanout; ++k) {
        int child = static_cast<int>(depth.size());
        depth.push_back(depth[static_cast<size_t>(node)] + 1);
        tree_of.push_back(t);
        par.push_back(Ints({child, node}));
      }
    }
  }
  int sg_nodes = static_cast<int>(depth.size());

  // Layered product DAGs: Bom(whole, part, qty), qty in 1..3.
  struct BomEdge {
    int part;
    int64_t qty;
  };
  int per_product = kBomLayers * kBomWidth;
  std::vector<std::vector<BomEdge>> bom_adj(
      static_cast<size_t>(kBomProducts * per_product));
  std::vector<Tuple> bom;
  for (int p = 0; p < kBomProducts; ++p) {
    int base = p * per_product;
    for (int layer = 0; layer + 1 < kBomLayers; ++layer) {
      for (int i = 0; i < kBomWidth; ++i) {
        int whole = base + layer * kBomWidth + i;
        std::set<int> parts;
        while (static_cast<int>(parts.size()) < kBomFanout) {
          parts.insert(base + (layer + 1) * kBomWidth +
                       static_cast<int>(data_rng.Below(kBomWidth)));
        }
        for (int part : parts) {
          int64_t qty = 1 + data_rng.Below(3);
          bom.push_back(Ints({whole, part, qty}));
          bom_adj[static_cast<size_t>(whole)].push_back({part, qty});
        }
      }
    }
  }

  const std::string wr_limit = std::to_string(kWrThreshold);
  w->setup = {R"(
TYPE wedge = RELATION OF RECORD src, dst, w: INTEGER END;
TYPE pairrel = RELATION OF RECORD src, dst: INTEGER END;
VAR W: wedge;
CONSTRUCTOR wreach FOR Rel: wedge (): pairrel;
BEGIN <r.src, r.dst> OF EACH r IN Rel: r.w < )" + wr_limit + R"(,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {wreach}:
        f.dst = b.src AND f.w < )" + wr_limit + R"(
END wreach;

TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE ontoprel = RELATION OF RECORD top, base: parttype END;
TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;
TYPE aboverel = RELATION OF RECORD high, low: parttype END;
VAR Infront: infrontrel;
VAR Ontop: ontoprel;
CONSTRUCTOR ahead FOR Rel: infrontrel (OnRel: ontoprel): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, ah.tail> OF EACH r IN Rel, EACH ah IN Rel {ahead(OnRel)}:
        r.back = ah.head,
      <r.front, ab.low> OF EACH r IN Rel, EACH ab IN OnRel {above(Rel)}:
        r.back = ab.high
END ahead;
CONSTRUCTOR above FOR Rel: ontoprel (InRel: infrontrel): aboverel;
BEGIN EACH r IN Rel: TRUE,
      <r.top, ab.low> OF EACH r IN Rel, EACH ab IN Rel {above(InRel)}:
        r.base = ab.high,
      <r.top, ah.tail> OF EACH r IN Rel, EACH ah IN InRel {ahead(Rel)}:
        r.base = ah.head
END above;

TYPE parrel = RELATION OF RECORD child, parent: INTEGER END;
TYPE sgrel = RELATION OF RECORD x, y: INTEGER END;
VAR Par: parrel;
CONSTRUCTOR sg FOR Rel: parrel (): sgrel;
BEGIN <a.child, b.child> OF EACH a IN Rel, EACH b IN Rel: a.parent = b.parent,
      <a.child, b.child> OF EACH a IN Rel, EACH s IN Rel {sg}, EACH b IN Rel:
        a.parent = s.x AND b.parent = s.y
END sg;

TYPE bomrel = RELATION OF RECORD whole, part, qty: INTEGER END;
VAR Bom: bomrel;
CONSTRUCTOR explode FOR Rel: bomrel (): bomrel;
BEGIN EACH r IN Rel: TRUE,
      <f.whole, b.part, f.qty * b.qty> OF EACH f IN Rel,
        EACH b IN Rel {explode}: f.part = b.whole
END explode;
)",
              InsertStatements("W", wr_tuples) +
                  InsertStatements("Infront", infront) +
                  InsertStatements("Ontop", ontop) +
                  InsertStatements("Par", par) + InsertStatements("Bom", bom)};
  w->final_relations = {{"W", Sorted(wr_tuples)},
                        {"Infront", Sorted(infront)},
                        {"Ontop", Sorted(ontop)},
                        {"Par", Sorted(par)},
                        {"Bom", Sorted(bom)}};
  w->sizes = {
      "W: " + std::to_string(wr_tuples.size()) + " edges on " +
          std::to_string(wr_nodes) + " nodes (" + std::to_string(kWrComps) +
          " components)",
      "Infront/Ontop: " + std::to_string(infront.size()) + "/" +
          std::to_string(ontop.size()) + " edges on " +
          std::to_string(cad_nodes) + " parts",
      "Par: " + std::to_string(par.size()) + " edges, " +
          std::to_string(kSgTrees) + " trees of fanout " +
          std::to_string(kSgFanout) + ", depth " + std::to_string(kSgDepth),
      "Bom: " + std::to_string(bom.size()) + " edges, " +
          std::to_string(kBomProducts) + " products of " +
          std::to_string(kBomLayers) + " layers"};

  // The query for constant `c` of class `cls` and its oracle result.
  auto make_op = [&](int cls, int c) {
    Op op;
    op.cls = cls;
    std::vector<Tuple> expected;
    switch (cls) {
      case 0: {  // reach
        op.text = "QUERY {EACH p IN W {wreach}: p.src = " + std::to_string(c) +
                  "};";
        for (int y : Reach(wr_adj, c)) expected.push_back(Ints({c, y}));
        break;
      }
      case 1: {  // ahead, bound on the front object
        op.text = "QUERY {EACH a IN Infront {ahead(Ontop)}: a.head = \"" +
                  Part(c) + "\"};";
        std::set<int> tails;
        for (int y : infront_adj[static_cast<size_t>(c)]) {
          tails.insert(y);
          for (int z : Reach(any_adj, y)) tails.insert(z);
        }
        for (int z : tails) expected.push_back(Parts(c, z));
        break;
      }
      case 2: {  // same generation
        op.text = "QUERY {EACH s IN Par {sg}: s.x = " + std::to_string(c) +
                  "};";
        for (int y = 0; y < sg_nodes; ++y) {
          if (depth[static_cast<size_t>(y)] == depth[static_cast<size_t>(c)] &&
              tree_of[static_cast<size_t>(y)] ==
                  tree_of[static_cast<size_t>(c)]) {
            expected.push_back(Ints({c, y}));
          }
        }
        break;
      }
      default: {  // bill of materials
        op.text = "QUERY {EACH e IN Bom {explode}: e.whole = " +
                  std::to_string(c) + "};";
        std::set<std::pair<int, int64_t>> states;
        std::deque<std::pair<int, int64_t>> queue;
        for (const BomEdge& e : bom_adj[static_cast<size_t>(c)]) {
          if (states.emplace(e.part, e.qty).second) {
            queue.emplace_back(e.part, e.qty);
          }
        }
        while (!queue.empty()) {
          auto [node, qty] = queue.front();
          queue.pop_front();
          for (const BomEdge& e : bom_adj[static_cast<size_t>(node)]) {
            if (states.emplace(e.part, qty * e.qty).second) {
              queue.emplace_back(e.part, qty * e.qty);
            }
          }
        }
        for (auto [part, qty] : states) expected.push_back(Ints({c, part, qty}));
        break;
      }
    }
    op.expected = Sorted(std::move(expected));
    return op;
  };

  // Each class's candidate constants: every node, part and non-root tree
  // node, and every product node above the last layer.
  std::vector<std::vector<int>> domain(w->classes.size());
  for (int c = 0; c < wr_nodes; ++c) domain[0].push_back(c);
  for (int c = 0; c < cad_nodes; ++c) domain[1].push_back(c);
  for (int c = 0; c < sg_nodes; ++c) {
    if (depth[static_cast<size_t>(c)] > 0) domain[2].push_back(c);
  }
  for (int c = 0; c < kBomProducts * per_product; ++c) {
    if (c % per_product < (kBomLayers - 1) * kBomWidth) domain[3].push_back(c);
  }

  // No constant repeats within a class, warm-up included, so every query
  // misses the cache. The constants are stratified by result size, so every
  // seed gets the same mix of small and large queries; drawn freely, the
  // handful of largest queries, which set p95, changed from seed to seed.
  const std::vector<int> shares = {33, 33, 23, 11};
  std::vector<int> warmup = ClassSequence(shares, 8, &rng);
  std::vector<int> measured =
      ClassSequence(shares, kRaOpsPerSecond * seconds, &rng);
  std::vector<std::vector<int>> picks(w->classes.size());
  for (size_t cls = 0; cls < picks.size(); ++cls) {
    int n = static_cast<int>(
        std::count(warmup.begin(), warmup.end(), static_cast<int>(cls)) +
        std::count(measured.begin(), measured.end(), static_cast<int>(cls)));
    std::vector<std::pair<size_t, int>> keyed;
    for (int c : domain[cls]) {
      keyed.emplace_back(make_op(static_cast<int>(cls), c).expected.size(), c);
    }
    picks[cls] = Stratified(std::move(keyed), n, &rng);
  }
  std::vector<size_t> next(picks.size(), 0);
  auto pick = [&](int cls) {
    return make_op(cls, picks[static_cast<size_t>(cls)]
                               [next[static_cast<size_t>(cls)]++]);
  };
  for (int cls : warmup) w->warmup.push_back(pick(cls));
  for (int cls : measured) w->ops.push_back(pick(cls));
  return w;
}

// ---------------------------------------------------------------------------
// point-queries: short interactive statements whose cost is per-statement
// overhead (parse, typecheck, rewrites, seeded-closure detection).

constexpr int kPqComps = 60, kPqSize = 12, kPqParts = 400;
constexpr double kPqPerNode = 1.5, kPqInfrontPerPart = 1.5;
constexpr int kPqOpsPerSecond = 50;
constexpr int kPqPasses = 72;

std::unique_ptr<Workload> PointQueries(uint64_t seed, int seconds) {
  auto w = std::make_unique<Workload>();
  w->name = "point-queries";
  w->passes = kPqPasses;
  w->classes = {{"closure_lookup", Metric::kQuery},
                {"selector_lookup", Metric::kQuery},
                {"prepared_closure", Metric::kQuery},
                {"inlined_join", Metric::kQuery}};
  Rng rng(seed ^ 0x50515259ULL);

  int nodes = kPqComps * kPqSize;
  Adj adj(static_cast<size_t>(nodes));
  std::vector<Tuple> edges;
  for (auto [a, b] : ComponentEdges(kPqComps, kPqSize, kPqPerNode, &rng)) {
    edges.push_back(Ints({a, b}));
    adj[static_cast<size_t>(a)].push_back(b);
  }
  std::vector<std::vector<int>> hidden(static_cast<size_t>(kPqParts));
  std::vector<Tuple> infront;
  for (auto [a, b] : ComponentEdges(1, kPqParts, kPqInfrontPerPart, &rng)) {
    infront.push_back(Parts(a, b));
    hidden[static_cast<size_t>(a)].push_back(b);
  }

  w->setup = {R"(
TYPE edge = RELATION OF RECORD src, dst: INTEGER END;
VAR E: edge;
CONSTRUCTOR tc FOR Rel: edge (): edge;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {tc}: f.dst = b.src
END tc;
CONSTRUCTOR two_hop FOR Rel: edge (): edge;
BEGIN <a.src, b.dst> OF EACH a IN Rel, EACH b IN Rel: a.dst = b.src
END two_hop;

TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
VAR Infront: infrontrel;
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
)",
              InsertStatements("E", edges) +
                  InsertStatements("Infront", infront)};
  w->final_relations = {{"E", Sorted(edges)}, {"Infront", Sorted(infront)}};
  w->sizes = {"E: " + std::to_string(edges.size()) + " edges on " +
                  std::to_string(nodes) + " nodes (" +
                  std::to_string(kPqComps) + " components of " +
                  std::to_string(kPqSize) + ")",
              "Infront: " + std::to_string(infront.size()) + " edges on " +
                  std::to_string(kPqParts) + " parts"};
  {
    using namespace datacon::build;  // NOLINT: terse AST construction
    Form form;
    form.expr = Union({IdentityBranch("t", Constructed(Rel("E"), "tc"),
                                      Eq(FieldRef("t", "src"), Param("c")))});
    form.placeholders = {{"c", datacon::ValueType::kInt}};
    w->forms.push_back(std::move(form));
  }

  auto make_op = [&](int cls) {
    Op op;
    op.cls = cls;
    std::vector<Tuple> expected;
    if (cls == 1) {
      int c = static_cast<int>(rng.Below(kPqParts));
      op.text = "QUERY Infront [hidden_by(\"" + Part(c) + "\")];";
      for (int b : hidden[static_cast<size_t>(c)]) {
        expected.push_back(Parts(c, b));
      }
    } else {
      int c = static_cast<int>(rng.Below(nodes));
      std::string cs = std::to_string(c);
      if (cls == 0) {
        op.text = "QUERY {EACH t IN E {tc}: t.src = " + cs + "};";
      } else if (cls == 2) {
        op.kind = OpKind::kPrepared;
        op.form = 0;
        op.params = {{"c", Value::Int(c)}};
      } else {
        op.text = "QUERY {EACH t IN E {two_hop}: t.src = " + cs + "};";
      }
      if (cls == 3) {
        std::set<int> ends;
        for (int m : adj[static_cast<size_t>(c)]) {
          for (int y : adj[static_cast<size_t>(m)]) ends.insert(y);
        }
        for (int y : ends) expected.push_back(Ints({c, y}));
      } else {
        for (int y : Reach(adj, c)) expected.push_back(Ints({c, y}));
      }
    }
    op.expected = Sorted(std::move(expected));
    return op;
  };
  const std::vector<int> shares = {33, 23, 11, 33};
  for (int cls : ClassSequence(shares, 40, &rng)) w->warmup.push_back(make_op(cls));
  for (int cls : ClassSequence(shares, kPqOpsPerSecond * seconds, &rng)) {
    w->ops.push_back(make_op(cls));
  }
  return w;
}

// ---------------------------------------------------------------------------
// update-churn: writes under KEY, FOREIGN and join DENY constraints, with
// recursive queries between them.

constexpr int kUcNodes = 200, kUcGroups = 8, kUcComps = 20, kUcBatch = 8;
// 80% of edges are cheap, so the cheap graph starts well above the density
// at which reach sets jump from small to whole components, and stays there
// as the writes add edges; near that density the closure size, and with it
// every query's cost, would swing from seed to seed.
constexpr int kUcThreshold = 80;
constexpr double kUcPerNode = 2.0;
constexpr int kUcBlocksPer4Seconds = 6;
constexpr int kUcPasses = 32;

/// One block of the churn sequence. The order is fixed, so every seed sees
/// the same mix of cache states: a recompute after the delete and after a
/// refusal on E (11% of queries), delta maintenance after valid E inserts
/// (26%), plain hits when nothing moved (63%); and a constraint full recheck
/// on the first write after the refusal. p50 then falls inside the hits and
/// p95 inside the recomputes, no class boundary within 5 points of either.
enum class Slot { kDelete, kQueryA, kQueryB, kEdge, kBatch, kNode, kRefused };
const Slot kBlock[] = {
    Slot::kDelete, Slot::kQueryA, Slot::kQueryB, Slot::kEdge,
    Slot::kQueryA, Slot::kQueryB, Slot::kBatch,  Slot::kQueryA,
    Slot::kNode,   Slot::kQueryB, Slot::kEdge,   Slot::kQueryA,
    Slot::kQueryB, Slot::kRefused, Slot::kEdge,  Slot::kQueryB,
    Slot::kQueryA, Slot::kEdge,   Slot::kQueryA, Slot::kQueryB,
    Slot::kQueryA, Slot::kQueryB, Slot::kQueryA, Slot::kQueryB,
};

std::unique_ptr<Workload> UpdateChurn(uint64_t seed, int seconds) {
  auto w = std::make_unique<Workload>();
  w->name = "update-churn";
  w->passes = kUcPasses;
  w->classes = {{"recursive_query", Metric::kQuery},
                {"insert_edge", Metric::kInsert},
                {"insert_batch", Metric::kInsert},
                {"insert_node", Metric::kInsert},
                {"insert_refused", Metric::kInsert},
                {"delete", Metric::kDelete}};
  // As in recursive-analytics, the starting data and the hot query
  // constants are the same for every seed; the seed draws the writes.
  Rng data_rng(0x55434855ULL);
  Rng rng(seed ^ 0x55434855ULL);

  // The model: Node(id, grp) and E(src, dst, w) with grp(src) <= grp(dst).
  // Valid edges stay inside one of kUcComps components (id % kUcComps), so
  // the closure is a sum over many small parts and its size, which sets
  // the recompute cost, varies little from seed to seed.
  std::map<int, int> group;
  std::map<std::pair<int, int>, int> weight;
  int next_id = 0;
  for (; next_id < kUcNodes; ++next_id) {
    group[next_id] = static_cast<int>(data_rng.Below(kUcGroups));
  }
  auto fresh_edge = [&](Rng* r) {
    while (true) {
      int a = static_cast<int>(r->Below(next_id));
      int b = a % kUcComps +
              kUcComps * static_cast<int>(r->Below(next_id / kUcComps));
      if (a == b || group[a] > group[b] || weight.count({a, b})) continue;
      return std::make_pair(a, b);
    }
  };
  for (int i = 0; i < kUcNodes * kUcPerNode; ++i) {
    weight[fresh_edge(&data_rng)] = static_cast<int>(data_rng.Below(100));
  }
  auto node_tuples = [&]() {
    std::vector<Tuple> out;
    for (auto [id, grp] : group) out.push_back(Ints({id, grp}));
    return out;
  };
  auto edge_tuples = [&]() {
    std::vector<Tuple> out;
    for (auto [e, wt] : weight) out.push_back(Ints({e.first, e.second, wt}));
    return out;
  };
  auto cheap_adj = [&]() {
    Adj adj(static_cast<size_t>(next_id));
    for (auto [e, wt] : weight) {
      if (wt < kUcThreshold) adj[static_cast<size_t>(e.first)].push_back(e.second);
    }
    return adj;
  };

  // Facts first, then the constraints (validated against them at define
  // time) and the recursive constructor.
  const std::string uc_limit = std::to_string(kUcThreshold);
  w->setup = {R"(
TYPE noderel = RELATION OF RECORD id, grp: INTEGER END;
TYPE edgerel = RELATION OF RECORD src, dst, w: INTEGER END;
TYPE pairrel = RELATION OF RECORD src, dst: INTEGER END;
VAR Node: noderel;
VAR E: edgerel;
)",
              InsertStatements("Node", node_tuples()) +
                  InsertStatements("E", edge_tuples()),
              R"(
CONSTRAINT node_key KEY <id> ON Node;
CONSTRAINT edge_key KEY <src, dst> ON E;
CONSTRAINT edge_src FOREIGN src OF E REFERENCES id OF Node;
CONSTRAINT edge_dst FOREIGN dst OF E REFERENCES id OF Node;
CONSTRAINT edge_upward DENY EACH e IN E, EACH a IN Node, EACH b IN Node:
  e.src = a.id AND e.dst = b.id AND b.grp < a.grp;
CONSTRUCTOR cheap FOR Rel: edgerel (): pairrel;
BEGIN <r.src, r.dst> OF EACH r IN Rel: r.w < )" + uc_limit + R"(,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {cheap}:
        f.dst = b.src AND f.w < )" + uc_limit + R"(
END cheap;
)"};
  w->sizes = {"Node: " + std::to_string(group.size()) + " nodes in " +
                  std::to_string(kUcGroups) + " groups and " +
                  std::to_string(kUcComps) + " components",
              "E: " + std::to_string(weight.size()) +
                  " edges, 2 hot query constants"};

  // The two hot constants: the widest reach among 16 sampled nodes.
  std::vector<std::pair<size_t, int>> sample;
  Adj initial = cheap_adj();
  for (int i = 0; i < 16; ++i) {
    int c = static_cast<int>(data_rng.Below(kUcNodes));
    sample.emplace_back(Reach(initial, c).size(), -c);
  }
  std::sort(sample.rbegin(), sample.rend());
  const int hot[2] = {-sample[0].second, -sample[1].second == -sample[0].second
                                             ? -sample[2].second
                                             : -sample[1].second};

  int refusals = 0;
  auto make_op = [&](Slot slot) {
    Op op;
    if (slot == Slot::kQueryA) {  // nodes on a cheap cycle
      op.text = "QUERY {EACH p IN E {cheap}: p.src = p.dst};";
      Adj adj = cheap_adj();
      for (int c = 0; c < next_id; ++c) {
        std::vector<int> reach = Reach(adj, c);
        if (std::binary_search(reach.begin(), reach.end(), c)) {
          op.expected.push_back(Ints({c, c}));
        }
      }
      return op;
    }
    if (slot == Slot::kQueryB) {  // reach of the two hot constants
      op.text = "QUERY {EACH p IN E {cheap}: p.src = " + std::to_string(hot[0]) +
                " OR p.src = " + std::to_string(hot[1]) + "};";
      Adj adj = cheap_adj();
      for (int c : hot) {
        for (int y : Reach(adj, c)) op.expected.push_back(Ints({c, y}));
      }
      std::sort(op.expected.begin(), op.expected.end());
      return op;
    }
    if (slot == Slot::kDelete) {
      int c;
      do {
        c = static_cast<int>(rng.Below(next_id));
      } while (weight.lower_bound({c, 0}) == weight.lower_bound({c + 1, 0}));
      op.cls = 5;
      op.kind = OpKind::kDelete;
      op.relation = "E";
      op.text = "E := {EACH e IN E: NOT (e.src = " + std::to_string(c) + ")};";
      for (auto it = weight.lower_bound({c, 0});
           it != weight.end() && it->first.first == c;) {
        op.absent.push_back(Ints({c, it->first.second, it->second}));
        it = weight.erase(it);
      }
      op.expected_size = weight.size();
      return op;
    }
    op.kind = OpKind::kInsert;
    op.relation = "E";
    if (slot == Slot::kNode) {
      op.cls = 3;
      op.relation = "Node";
      int grp = static_cast<int>(rng.Below(kUcGroups));
      op.tuples = {Ints({next_id, grp})};
      group[next_id++] = grp;
      op.present = op.tuples;
      op.expected_size = group.size();
      return op;
    }
    if (slot == Slot::kEdge || slot == Slot::kBatch) {
      op.cls = slot == Slot::kEdge ? 1 : 2;
      for (int i = 0; i < (slot == Slot::kEdge ? 1 : kUcBatch); ++i) {
        auto e = fresh_edge(&rng);
        int wt = static_cast<int>(rng.Below(100));
        weight[e] = wt;
        op.tuples.push_back(Ints({e.first, e.second, wt}));
      }
      op.present = op.tuples;
      op.expected_size = weight.size();
      return op;
    }
    // A refused insert; the kinds rotate through every constraint.
    op.cls = 4;
    op.expect_refused = true;
    int kind = refusals++ % 6;
    if (kind == 0) {  // node_key: an existing id with another group
      int id = static_cast<int>(rng.Below(next_id));
      op.relation = "Node";
      op.tuples = {Ints({id, (group[id] + 1) % kUcGroups})};
      op.present = {Ints({id, group[id]})};
    } else if (kind == 1) {  // edge_key: an existing edge with a new weight
      auto it = weight.begin();
      std::advance(it, rng.Below(static_cast<int64_t>(weight.size())));
      op.tuples = {Ints({it->first.first, it->first.second,
                         (it->second + 1) % 100})};
      op.present = {Ints({it->first.first, it->first.second, it->second})};
    } else if (kind == 2) {  // edge_dst: a dangling destination
      op.tuples = {Ints({rng.Below(next_id), next_id + 100000, 1})};
    } else if (kind == 3) {  // edge_src: a dangling source
      op.tuples = {Ints({next_id + 100000, rng.Below(next_id), 1})};
    } else {  // edge_upward, alone (4) or at the end of a valid batch (5)
      int a, b;
      do {
        a = static_cast<int>(rng.Below(next_id));
        b = static_cast<int>(rng.Below(next_id));
      } while (group[a] <= group[b] || weight.count({a, b}));
      if (kind == 5) {
        std::set<std::pair<int, int>> picked;
        while (static_cast<int>(op.tuples.size()) < kUcBatch - 1) {
          auto e = fresh_edge(&rng);
          if (!picked.insert(e).second) continue;
          op.tuples.push_back(Ints({e.first, e.second, rng.Below(100)}));
        }
      }
      op.tuples.push_back(Ints({a, b, rng.Below(100)}));
    }
    op.absent = op.tuples;
    op.expected_size = op.relation == "E" ? weight.size() : group.size();
    return op;
  };
  for (Slot slot : kBlock) w->warmup.push_back(make_op(slot));
  for (int block = 0; block < kUcBlocksPer4Seconds * seconds / 4; ++block) {
    for (Slot slot : kBlock) w->ops.push_back(make_op(slot));
  }
  w->final_relations = {{"Node", node_tuples()}, {"E", edge_tuples()}};
  return w;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int seconds) {
  if (name == "recursive-analytics") return RecursiveAnalytics(seed, seconds);
  if (name == "point-queries") return PointQueries(seed, seconds);
  if (name == "update-churn") return UpdateChurn(seed, seconds);
  return nullptr;
}

}  // namespace perfbench
