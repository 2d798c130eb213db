// Templated primal-dual weighted blossom core shared by the dense and
// sparse matching engines.
//
// This is the O(n^3) Galil primal-dual scheme of the original dense
// solver, lifted out of its (2n+1)^2 adjacency matrix:
//
//  * The edge Store is a template parameter providing REAL-REAL weights
//    only (DenseStore: an (n+1)^2 doubled-weight matrix; SparseStore: CSR
//    candidate rows). A weight of 0 means "no edge" — exactly how the
//    dense solver already treated missing edges, which is what makes the
//    core sparse-capable without algorithmic changes.
//
//  * All per-blossom bookkeeping (the best member edge toward every other
//    node, the flower) is owned by the core and allocated lazily per
//    active blossom id out of a reusable BlossomArena, replacing the
//    per-call (2n+1)^2 Edge + weight matrix allocations. Symmetric cells
//    of the old matrix were always exact mirrors, so only the
//    blossom-side row is stored and the opposite orientation is derived
//    by swapping record endpoints. Each row logs the targets it holds, so
//    forming a blossom clears its row and reads its blossom members' real
//    targets in what the rows hold rather than over every vertex id. A
//    parent pointer per id (its enclosing blossom, 0 at top level) finds
//    the member of a blossom that holds a given leaf.
//
//  * The dual-adjustment inner loops run through the simd::i64_* kernels
//    over flat arrays: su_[u] mirrors s_[st_[u]] for real u (maintained
//    alongside every relabel), and slack_val_[x] caches the reduced cost
//    of base x's recorded slack edge. The cache stays exact because
//    within a phase slack sources remain outer (their labels all move by
//    -d), and every state change of a target base coincides with a slack
//    reset or recompute; a batched shift (-d free / -2d outer / 0 inner)
//    after each dual adjustment keeps it current. This turns both the
//    min-slack reduction and the label update into branch-free scans with
//    bitwise-identical scalar semantics (util/simd.h).
//
//  * Solves start from a jump start (tight per-vertex duals plus a
//    greedy tight matching, see jump_start) or a warm start, not from
//    uniform labels and an empty matching, and the phases run until the
//    matching is PERFECT rather than stopping at the max-weight optimum.
//    Vertex duals are therefore unrestricted in sign (blossom z stays
//    >= 0); quantize.h budgets the int64 headroom, and a solve that would
//    cross the floor restarts cold.
//
// All vertex ids are 1-based; ids in (n, 2n] are contracted blossoms.
// Edge weights are doubled so every dual value stays integral.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "matching/quantize.h"
#include "obs/obs.h"
#include "util/assert.h"
#include "util/simd.h"

namespace mcharge::matching::detail {

struct BlossomEdge {
  int u = 0, v = 0;
};

/// Reusable scratch for blossom solves; obtain via thread_arena(). Rows
/// keep their capacity across solves, so steady-state solves allocate
/// nothing.
struct BlossomArena {
  std::vector<std::int64_t> lab, slack_val;
  std::vector<std::int32_t> match, slack, st, pa, s, vis, su, parent;
  // Per-blossom-slot rows (slot = id - n - 1), allocated on first use.
  // brow_log lists the targets written in the row since it was last
  // cleared, so clearing and scanning it cost what the row holds.
  std::vector<std::vector<BlossomEdge>> brow_e;
  std::vector<std::vector<std::int64_t>> brow_w;
  std::vector<std::vector<std::int32_t>> brow_log;
  std::vector<std::vector<std::int32_t>> flower;
  std::vector<std::int32_t> queue;  ///< FIFO; the core pops from a head index
  std::vector<std::int64_t> dense_w;  ///< DenseStore backing matrix
};

/// The per-thread arena (matching solves never nest or cross threads).
BlossomArena& thread_arena();

/// The sparse engine's initial candidate graph over `pts` (at least two
/// points): each vertex's min(knn, n - 1) nearest others by (squared
/// distance, id), plus the backbone pairs (2i, 2i + 1). 0-based (u, v)
/// with u < v, ascending and unique.
std::vector<std::pair<int, int>> knn_candidate_edges(
    const std::vector<geom::Point>& pts, int knn);

/// Complete-graph store: (n+1)^2 doubled-weight matrix in the arena.
class DenseStore {
 public:
  DenseStore(int n, BlossomArena& arena) : n_(n), w_(arena.dense_w) {
    w_.assign(static_cast<std::size_t>(n + 1) * (n + 1), 0);
  }

  /// Doubled weight for the 1-based pair (u, v); call before solving.
  void set2(int u, int v, std::int64_t w2) {
    w_[idx(u, v)] = w2;
    w_[idx(v, u)] = w2;
  }

  std::int64_t weight(int u, int v) const { return w_[idx(u, v)]; }

  /// Calls f(v, w2) for v in ascending order with weight(u, v) > 0; stops
  /// early (returning false) when f does.
  template <class F>
  bool for_neighbors(int u, F&& f) const {
    const std::int64_t* row = w_.data() + idx(u, 0);
    for (int v = 1; v <= n_; ++v) {
      if (row[v] > 0 && !f(v, row[v])) return false;
    }
    return true;
  }

 private:
  std::size_t idx(int u, int v) const {
    return static_cast<std::size_t>(u) * (n_ + 1) + v;
  }

  int n_;
  std::vector<std::int64_t>& w_;
};

/// Candidate-graph store: CSR adjacency with doubled weights, rows sorted
/// by neighbor id (so tie-breaking scans visit sources in the same
/// ascending order as the dense row scan).
class SparseStore {
 public:
  /// `edges` lists each undirected edge (u, v), 1-based with u < v, once
  /// and in strictly ascending order; `w2` holds their doubled weights.
  /// A counting fill then leaves every row ascending: row u receives its
  /// lower neighbours (edges (x, u), in x order) before its higher ones
  /// (edges (u, v), in v order).
  SparseStore(int n, const std::vector<std::pair<int, int>>& edges,
              const std::vector<std::int64_t>& w2)
      : n_(n) {
    head_.assign(n + 2, 0);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const auto [u, v] = edges[k];
      MCHARGE_ASSERT(1 <= u && u < v && v <= n,
                     "sparse store edges are 1-based (u, v) with u < v");
      MCHARGE_ASSERT(k == 0 || edges[k - 1] < edges[k],
                     "sparse store edges are strictly ascending");
      ++head_[u + 1];
      ++head_[v + 1];
    }
    for (int u = 1; u <= n + 1; ++u) head_[u] += head_[u - 1];
    nbr_.resize(2 * edges.size());
    w_.resize(2 * edges.size());
    std::vector<std::int32_t> fill(head_.begin(), head_.end() - 1);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const auto [u, v] = edges[k];
      nbr_[fill[u]] = v;
      w_[fill[u]++] = w2[k];
      nbr_[fill[v]] = u;
      w_[fill[v]++] = w2[k];
    }
  }

  std::int64_t weight(int u, int v) const {
    const auto* begin = nbr_.data() + head_[u];
    const auto* end = nbr_.data() + head_[u + 1];
    const auto* it = std::lower_bound(begin, end, v);
    if (it == end || *it != v) return 0;
    return w_[it - nbr_.data()];
  }

  template <class F>
  bool for_neighbors(int u, F&& f) const {
    for (std::int32_t k = head_[u]; k < head_[u + 1]; ++k) {
      if (!f(static_cast<int>(nbr_[k]), w_[k])) return false;
    }
    return true;
  }

 private:
  int n_;
  std::vector<std::int32_t> head_, nbr_;
  std::vector<std::int64_t> w_;
};

template <class Store>
class BlossomCore {
 public:
  BlossomCore(int n, const Store& store, BlossomArena& arena)
      : n_(n), cap_(2 * n + 1), store_(store), a_(arena) {
    a_.lab.assign(cap_, 0);
    a_.slack_val.assign(cap_, 0);
    a_.match.assign(cap_, 0);
    a_.slack.assign(cap_, 0);
    a_.st.assign(cap_, 0);
    a_.pa.assign(cap_, 0);
    a_.s.assign(cap_, -1);
    a_.vis.assign(cap_, 0);
    a_.su.assign(n + 1, -1);
    a_.parent.assign(cap_, 0);
    if (static_cast<int>(a_.brow_e.size()) < n_) {
      a_.brow_e.resize(n_);
      a_.brow_w.resize(n_);
      a_.brow_log.resize(n_);
      a_.flower.resize(n_);
    }
    a_.queue.clear();
    lab_ = a_.lab.data();
    slack_val_ = a_.slack_val.data();
    match_ = a_.match.data();
    slack_ = a_.slack.data();
    st_ = a_.st.data();
    pa_ = a_.pa.data();
    s_ = a_.s.data();
    vis_ = a_.vis.data();
    su_ = a_.su.data();
    parent_ = a_.parent.data();
  }

  /// Runs the solver from the jump start; afterwards partner(v) gives v's
  /// mate (1-based) and dual2(v) the final doubled dual label. The store
  /// must admit a perfect matching (a complete graph does; the sparse
  /// engine's backbone guarantees one), and the result is a maximum-weight
  /// PERFECT matching — on a complete graph with positive weights that is
  /// also the maximum-weight matching.
  void solve() {
    jump_start();
    finish();
  }

  /// Warm entry: seeds labels and matching from an earlier solve over a
  /// subset of this store's edges (`lab2` 0-indexed by vertex, `mate`
  /// 1-based partners, 0 = unmatched, involutive, every matched pair a
  /// store edge), restores the phase-entry invariants with the same
  /// repair passes the jump start uses, then runs the phases. Labels may
  /// be odd, negative, or infeasible on edges the earlier solve did not
  /// have.
  void solve_from(const std::vector<std::int64_t>& lab2,
                  const std::vector<std::int32_t>& mate) {
    reset_blossoms();
    for (int u = 1; u <= n_; ++u) {
      lab_[u] = lab2[u - 1];
      match_[u] = mate[u - 1];
    }
    repair();
    finish();
  }

  /// Seeds labels and matching without running any phase (solve() runs
  /// the phases afterwards). Every vertex first takes its tightest dual,
  /// lab_u = max_v w2(u, v) / 2, which is feasible on every edge; a
  /// second ascending pass lowers each label to max_v (w2(u, v) - lab_v),
  /// the least value that keeps u's edges feasible against the current
  /// labels. Tight edges are then matched greedily in ascending id, and
  /// repair() establishes the phase-entry invariants: every label EVEN,
  /// every store edge feasible (lab_u + lab_v >= w2(u, v)), every matched
  /// pair tight and mate[] involutive. The parity requirement matters for
  /// termination, not feasibility: i64_slack_bound halves outer-target
  /// slacks and the post-adjustment rescan only fires at slack exactly 0,
  /// so an ODD outer-outer slack pins d at floor(1/2) = 0 forever. Labels
  /// may be negative: nothing in the perfect-matching phases needs a sign.
  void jump_start() {
    reset_blossoms();
    for (int u = 1; u <= n_; ++u) {
      std::int64_t best = 0;
      store_.for_neighbors(u, [&](int, std::int64_t w) {
        best = std::max(best, w);
        return true;
      });
      lab_[u] = best / 2;
      match_[u] = 0;
    }
    for (int u = 1; u <= n_; ++u) {
      std::int64_t need = kI64Min;
      store_.for_neighbors(u, [&](int v, std::int64_t w) {
        need = std::max(need, w - lab_[v]);
        return true;
      });
      if (need != kI64Min) lab_[u] = need;
    }
    for (int u = 1; u <= n_; ++u) {
      if (match_[u]) continue;
      store_.for_neighbors(u, [&](int v, std::int64_t w) {
        if (match_[v] || lab_[u] + lab_[v] != w) return true;
        match_[u] = v;
        match_[v] = u;
        return false;
      });
    }
    repair();
  }

  int partner(int v) const { return match_[v]; }
  std::int64_t dual2(int v) const { return lab_[v]; }

  /// Doubled z summed over the surviving blossoms that contain real
  /// vertex v: its whole nesting chain.
  std::int64_t enclosing_z2(int v) const {
    std::int64_t z2 = 0;
    for (int b = parent_[v]; b != 0; b = parent_[b]) z2 += lab_[b];
    return z2;
  }

  /// Doubled z summed over the surviving blossoms that contain both real
  /// vertices u and v: exactly the blossom duals the complete-graph
  /// constraint of the pair carries. Pricing on labels alone spuriously
  /// flags close intra-blossom pairs, whose z mass can sit at any nesting
  /// depth.
  std::int64_t shared_z2(int u, int v) const {
    const auto depth = [this](int x) {
      int d = 0;
      for (int b = parent_[x]; b != 0; b = parent_[b]) ++d;
      return d;
    };
    int du = depth(u), dv = depth(v);
    int a = parent_[u], b = parent_[v];
    for (; du > dv; --du) a = parent_[a];
    for (; dv > du; --dv) b = parent_[b];
    while (a != b) {
      a = parent_[a];
      b = parent_[b];
    }
    std::int64_t z2 = 0;
    for (; a != 0; a = parent_[a]) z2 += lab_[a];
    return z2;
  }

 private:
  static constexpr std::int64_t kI64Max =
      std::numeric_limits<std::int64_t>::max();
  static constexpr std::int64_t kI64Min =
      std::numeric_limits<std::int64_t>::min();

  enum class Phase { kAugmented, kPerfect, kBelowFloor };

  void reset_blossoms() {
    n_x_ = n_;
    for (int u = 1; u <= n_; ++u) {
      st_[u] = u;
      parent_[u] = 0;
    }
  }

  /// Restores the phase-entry invariants (see jump_start) on arbitrary
  /// labels and an involutive matching over store edges, breaking as few
  /// matched pairs as possible:
  ///  1. Parity. A tight pair's label sum is even (weights are even), so
  ///     its labels are odd together; +1 / -1 across the pair evens both
  ///     without breaking tightness. Free vertices round up. The -1 can
  ///     dent a neighboring edge by one unit; pass 2 repairs it.
  ///  2. Feasibility bump, each store edge once in ascending (u, v)
  ///     order: raising the lower endpoint by the (even) deficit restores
  ///     lab_u + lab_v >= w2 and cannot break any other edge (labels only
  ///     ever increase).
  ///  3. Unmatch every pair whose edge is no longer tight.
  void repair() {
    for (int u = 1; u <= n_; ++u) {
      if ((lab_[u] & 1) == 0) continue;
      const int m = match_[u];
      lab_[u] += 1;  // a free vertex, or a pair already evened from m
      if (m > u) lab_[m] -= 1;
    }
    w_max_ = 0;
    for (int u = 1; u <= n_; ++u) {
      store_.for_neighbors(u, [&](int v, std::int64_t w) {
        w_max_ = std::max(w_max_, w);
        if (v > u) lab_[u] += std::max<std::int64_t>(0, w - lab_[u] - lab_[v]);
        return true;
      });
    }
    for (int u = 1; u <= n_; ++u) {
      const int m = match_[u];
      if (m > u && lab_[u] + lab_[m] != store_.weight(u, m)) {
        match_[u] = 0;
        match_[m] = 0;
      }
    }
  }

  /// Runs phases to a perfect matching. A jump or warm start can drive a
  /// label below w_max - kLabelSpan2 (quantize.h), the least value the
  /// int64 budget covers; the solve then restarts cold — every label at
  /// w_max, nothing matched — which keeps all labels positive on a
  /// complete graph: every free vertex holds the common minimum label,
  /// and it could reach 0 only once the matching were maximum-weight,
  /// i.e. already perfect.
  void finish() {
    if (run_phases()) return;
    OBS_COUNT("blossom.cold_restarts", 1);
    reset_blossoms();
    for (int u = 1; u <= n_; ++u) {
      lab_[u] = w_max_;
      match_[u] = 0;
    }
    MCHARGE_ASSERT(run_phases(), "blossom: vertex dual below the int64 floor");
  }

  std::int64_t min_label() const {
    return n_ == 0 ? 0 : *std::min_element(lab_ + 1, lab_ + n_ + 1);
  }

  bool run_phases() {
    lab_floor_ = w_max_ - kLabelSpan2;
    lab_lb_ = min_label();
    if (lab_lb_ < lab_floor_) return false;
    for (;;) {
      switch (matching_phase()) {
        case Phase::kAugmented:
          break;
        case Phase::kPerfect:
          return true;
        case Phase::kBelowFloor:
          return false;
      }
    }
  }

  static BlossomEdge flip(BlossomEdge e) { return {e.v, e.u}; }
  int slot(int b) const { return b - n_ - 1; }

  std::vector<std::int32_t>& flower(int b) { return a_.flower[slot(b)]; }

  /// Empties blossom b's row: zeroes what its log lists (a row that is
  /// too short for this solve is reallocated zeroed instead).
  void clear_row(int b) {
    const int sl = slot(b);
    auto& rw = a_.brow_w[sl];
    auto& log = a_.brow_log[sl];
    if (static_cast<int>(rw.size()) < cap_) {
      a_.brow_e[sl].assign(cap_, {});
      rw.assign(cap_, 0);
    } else {
      for (const std::int32_t x : log) rw[x] = 0;
    }
    log.clear();
  }

  /// Edge record of the (u, v) slot: synthesized for real-real pairs,
  /// blossom rows otherwise (the v-side orientation is the flipped
  /// u-side record; the old dense matrix kept both as exact mirrors).
  BlossomEdge rec(int u, int v) const {
    if (u > n_) return a_.brow_e[slot(u)][v];
    if (v > n_) return flip(a_.brow_e[slot(v)][u]);
    return {u, v};
  }

  std::int64_t weight(int u, int v) const {
    if (u > n_) return a_.brow_w[slot(u)][v];
    if (v > n_) return a_.brow_w[slot(v)][u];
    return store_.weight(u, v);
  }

  /// Reduced cost of a stored record (w is the record's weight slot — by
  /// invariant exactly wt(e.u, e.v)).
  std::int64_t e_delta2(BlossomEdge e, std::int64_t w) const {
    return lab_[e.u] + lab_[e.v] - w;
  }
  std::int64_t e_delta(int u, int v) const {
    return e_delta2(rec(u, v), weight(u, v));
  }

  /// cand must be the current reduced cost of the (u, x) slot; the cached
  /// slack_val_ of the incumbent is current by the shift invariant.
  void update_slack(int u, int x, std::int64_t cand) {
    if (slack_[x] == 0 || cand < slack_val_[x]) {
      slack_[x] = u;
      slack_val_[x] = cand;
    }
  }

  void set_slack(int x) {
    slack_[x] = 0;
    if (x <= n_) {
      const std::int64_t lab_x = lab_[x];
      store_.for_neighbors(x, [&](int u, std::int64_t w) {
        if (st_[u] != x && su_[u] == 0) {
          update_slack(u, x, lab_[u] + lab_x - w);
        }
        return true;
      });
    } else {
      // A blossom row's real targets were all logged when it formed.
      const auto& re = a_.brow_e[slot(x)];
      const auto& rw = a_.brow_w[slot(x)];
      for (const std::int32_t u : a_.brow_log[slot(x)]) {
        if (u <= n_ && rw[u] > 0 && st_[u] != x && su_[u] == 0) {
          update_slack(u, x, e_delta2(re[u], rw[u]));
        }
      }
    }
  }

  void q_push(int x) {
    if (x <= n_) {
      a_.queue.push_back(x);
      return;
    }
    for (const int y : flower(x)) q_push(y);
  }

  void set_st(int x, int b) {
    st_[x] = b;
    if (x > n_) {
      for (const int y : flower(x)) set_st(y, b);
    }
  }

  /// Mirrors s_[st_[u]] into su_[u] for every real leaf of x.
  void mark_state(int x, std::int32_t sv) {
    if (x <= n_) {
      su_[x] = sv;
      return;
    }
    for (const int y : flower(x)) mark_state(y, sv);
  }

  /// The member of blossom x that contains x's leaf r.
  int from_at(int x, int r) const {
    while (parent_[r] != x) r = parent_[r];
    return r;
  }

  int get_pr(int b, int xr) {
    auto& fl = flower(b);
    const auto it = std::find(fl.begin(), fl.end(), xr);
    int pr = static_cast<int>(it - fl.begin());
    if (pr % 2 == 1) {
      std::reverse(fl.begin() + 1, fl.end());
      return static_cast<int>(fl.size()) - pr;
    }
    return pr;
  }

  void set_match(int u, int v) {
    const BlossomEdge e = rec(u, v);
    match_[u] = e.v;
    if (u <= n_) return;
    const int xr = from_at(u, e.u);
    const int pr = get_pr(u, xr);
    auto& fl = flower(u);
    for (int i = 0; i < pr; ++i) {
      set_match(fl[i], fl[i ^ 1]);
    }
    set_match(xr, v);
    std::rotate(fl.begin(), fl.begin() + pr, fl.end());
  }

  void augment(int u, int v) {
    for (;;) {
      const int xnv = st_[match_[u]];
      set_match(u, v);
      if (!xnv) return;
      set_match(xnv, st_[pa_[xnv]]);
      u = st_[pa_[xnv]];
      v = xnv;
    }
  }

  int get_lca(int u, int v) {
    for (++timestamp_; u || v; std::swap(u, v)) {
      if (u == 0) continue;
      if (vis_[u] == timestamp_) return u;
      vis_[u] = timestamp_;
      u = st_[match_[u]];
      if (u) u = st_[pa_[u]];
    }
    return 0;
  }

  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[b]) ++b;
    if (b > n_x_) ++n_x_;
    clear_row(b);
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    parent_[b] = 0;
    auto& fl = flower(b);
    fl.clear();
    fl.push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
      fl.push_back(x);
      fl.push_back(y = st_[match_[x]]);
      q_push(y);
    }
    std::reverse(fl.begin() + 1, fl.end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
      fl.push_back(x);
      fl.push_back(y = st_[match_[x]]);
      q_push(y);
    }
    for (const int x : fl) parent_[x] = b;
    set_st(b, b);
    mark_state(b, 0);
    auto& be = a_.brow_e[slot(b)];
    auto& bw = a_.brow_w[slot(b)];
    auto& log = a_.brow_log[slot(b)];
    for (int x = n_ + 1; x <= n_x_; ++x) {
      if (x != b) a_.brow_w[slot(x)][b] = 0;
    }
    // b's row keeps, per target x, the member edge of least reduced cost.
    // A weight-0 slot is a non-edge and never displaces a real record: a
    // (u, x) slack candidate must name a real edge, and with negative
    // labels a non-edge's label sum can undercut a real edge's reduced
    // cost. A blossom target's row mirrors the record.
    const auto offer = [&](int x, BlossomEdge e, std::int64_t w) {
      if (w == 0) return;
      if (bw[x] == 0) {
        log.push_back(x);
      } else if (e_delta2(e, w) >= e_delta2(be[x], bw[x])) {
        return;
      }
      be[x] = e;
      bw[x] = w;
      if (x > n_ && x != b) {
        auto& xw = a_.brow_w[slot(x)];
        if (xw[b] == 0) a_.brow_log[slot(x)].push_back(b);
        a_.brow_e[slot(x)][b] = flip(e);
        xw[b] = w;
      }
    };
    for (const int xs : fl) {
      if (xs <= n_) {
        // A real member's real targets are exactly its store neighbors.
        store_.for_neighbors(xs, [&](int x, std::int64_t w) {
          offer(x, BlossomEdge{xs, x}, w);
          return true;
        });
      } else {
        // A blossom member's real targets are the ones its log lists.
        const auto& xe = a_.brow_e[slot(xs)];
        const auto& xw = a_.brow_w[slot(xs)];
        for (const std::int32_t x : a_.brow_log[slot(xs)]) {
          if (x <= n_) offer(x, xe[x], xw[x]);
        }
      }
      for (int x = n_ + 1; x <= n_x_; ++x) offer(x, rec(xs, x), weight(xs, x));
    }
    set_slack(b);
  }

  void expand_blossom(int b) {
    auto& fl = flower(b);
    for (const int x : fl) set_st(x, x);
    const int xr = from_at(b, rec(b, pa_[b]).u);
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
      const int xs = fl[i];
      const int xns = fl[i + 1];
      pa_[xs] = rec(xns, xs).u;
      s_[xs] = 1;
      mark_state(xs, 1);
      s_[xns] = 0;
      mark_state(xns, 0);
      slack_[xs] = 0;
      set_slack(xns);
      q_push(xns);
    }
    s_[xr] = 1;
    mark_state(xr, 1);
    pa_[xr] = pa_[b];
    for (int i = pr + 1; i < static_cast<int>(fl.size()); ++i) {
      const int xs = fl[i];
      s_[xs] = -1;
      mark_state(xs, -1);
      set_slack(xs);
    }
    for (const int x : fl) parent_[x] = 0;
    st_[b] = 0;
  }

  bool on_found_edge(const BlossomEdge& e) {
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
      pa_[v] = e.u;
      s_[v] = 1;
      mark_state(v, 1);
      const int nu = st_[match_[v]];
      slack_[v] = 0;
      slack_[nu] = 0;
      s_[nu] = 0;
      mark_state(nu, 0);
      q_push(nu);
    } else if (s_[v] == 0) {
      const int lca = get_lca(u, v);
      if (!lca) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }

  Phase matching_phase() {
    std::fill(s_, s_ + n_x_ + 1, -1);
    std::fill(slack_, slack_ + n_x_ + 1, 0);
    std::fill(su_ + 1, su_ + n_ + 1, -1);
    a_.queue.clear();
    queue_head_ = 0;
    bool any_free = false;
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && !match_[x]) {
        pa_[x] = 0;
        s_[x] = 0;
        mark_state(x, 0);
        q_push(x);
        any_free = true;
      }
    }
    if (!any_free) return Phase::kPerfect;

    // Safety: a correct run needs O(n^2) dual adjustments per phase; a
    // runaway loop means a bug, so fail loudly instead of hanging.
    const int max_adjustments = 64 * (n_ + 2) * (n_ + 2);
    for (int guard = 0; guard <= max_adjustments; ++guard) {
      MCHARGE_ASSERT(guard < max_adjustments,
                     "blossom: dual adjustment loop did not terminate");
      for (; queue_head_ < a_.queue.size(); ) {
        const int u = a_.queue[queue_head_++];
        if (s_[st_[u]] == 1) continue;
        // u is a base vertex (q_push expands blossoms), so the (u, v)
        // slot for real v is never overwritten and its reduced cost is
        // the direct label/weight expression on the store row.
        const std::int64_t lab_u = lab_[u];
        bool augmented = false;
        store_.for_neighbors(u, [&](int v, std::int64_t w) {
          const int x = st_[v];
          if (st_[u] == x) return true;
          const std::int64_t delta = lab_u + lab_[v] - w;
          if (delta == 0) {
            if (on_found_edge(BlossomEdge{u, v})) {
              augmented = true;
              return false;
            }
          } else if (x == v) {
            update_slack(u, x, delta);
          } else {
            // v is inside blossom x: the candidate is the stored best
            // (u, x) member edge, not the scanned pair.
            update_slack(u, x, e_delta(u, x));
          }
          return true;
        });
        if (augmented) return Phase::kAugmented;
      }

      std::int64_t d = kI64Max;
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
      }
      d = std::min(d, simd::i64_slack_bound(slack_val_, slack_, st_, s_, 1,
                                            n_x_ + 1));
      MCHARGE_ASSERT(d != kI64Max, "blossom: no dual adjustment available");

      // No max-weight stop: the phases run until the matching is perfect,
      // so vertex labels may go negative (blossom z stays >= 0). Each
      // adjustment lowers any label by at most d, so lab_lb_ - d bounds
      // every label afterwards; only when that bound crosses the floor is
      // the exact minimum taken, and a real crossing aborts BEFORE
      // applying, with the duals still consistent.
      if (d > lab_lb_ - lab_floor_) {
        lab_lb_ = min_label();
        if (d > lab_lb_ - lab_floor_) return Phase::kBelowFloor;
      }
      lab_lb_ -= d;
      simd::i64_dual_apply(lab_, su_, 1, n_ + 1, d);
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b) {
          if (s_[b] == 0) {
            lab_[b] += 2 * d;
          } else if (s_[b] == 1) {
            lab_[b] -= 2 * d;
          }
        }
      }
      simd::i64_slack_shift(slack_val_, slack_, st_, s_, 1, n_x_ + 1, d);

      a_.queue.clear();
      queue_head_ = 0;
      for (int x = 1; x <= n_x_; ++x) {
        if (slack_val_[x] == 0 && st_[x] == x && slack_[x] &&
            st_[slack_[x]] != x) {
          if (on_found_edge(rec(slack_[x], x))) return Phase::kAugmented;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
      }
    }
    return Phase::kPerfect;  // unreachable: the guard asserts first
  }

  int n_;
  int n_x_ = 0;
  int cap_;
  const Store& store_;
  BlossomArena& a_;
  std::int64_t* lab_ = nullptr;
  std::int64_t* slack_val_ = nullptr;
  std::int32_t* match_ = nullptr;
  std::int32_t* slack_ = nullptr;
  std::int32_t* st_ = nullptr;
  std::int32_t* pa_ = nullptr;
  std::int32_t* s_ = nullptr;
  std::int32_t* vis_ = nullptr;
  std::int32_t* su_ = nullptr;
  std::int32_t* parent_ = nullptr;  ///< enclosing blossom, 0 at top level
  std::size_t queue_head_ = 0;
  int timestamp_ = 0;
  std::int64_t w_max_ = 0;      ///< largest store weight (set by repair)
  std::int64_t lab_floor_ = 0;  ///< w_max_ - kLabelSpan2
  std::int64_t lab_lb_ = 0;     ///< lower bound on every real vertex label
};

}  // namespace mcharge::matching::detail
