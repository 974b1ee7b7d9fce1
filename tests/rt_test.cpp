#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rt/block.hpp"
#include "rt/decomp.hpp"
#include "rt/field.hpp"
#include "rt/halo.hpp"
#include "rt/multipart.hpp"
#include "sim/engine.hpp"

namespace dhpf::rt {
namespace {

using exec::Machine;
using exec::Task;
using sim::Process;

// ----------------------------------------------------------------- Block1D

class Block1DP : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Block1DP, PartitionsWithoutGapsOrOverlap) {
  auto [n, p] = GetParam();
  Block1D b(n, p);
  int covered = 0;
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(b.lo(r), covered);
    covered += b.size(r);
    for (int i = b.lo(r); i < b.hi(r); ++i) EXPECT_EQ(b.owner(i), r);
  }
  EXPECT_EQ(covered, n);
}

TEST_P(Block1DP, ChunkSizesDifferByAtMostOne) {
  auto [n, p] = GetParam();
  Block1D b(n, p);
  int mn = n + 1, mx = -1;
  for (int r = 0; r < p; ++r) {
    mn = std::min(mn, b.size(r));
    mx = std::max(mx, b.size(r));
  }
  EXPECT_LE(mx - mn, 1);
  EXPECT_EQ(b.max_size(), mx);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Block1DP,
                         ::testing::Values(std::pair{10, 1}, std::pair{10, 2},
                                           std::pair{10, 3}, std::pair{64, 5},
                                           std::pair{7, 7}, std::pair{100, 16},
                                           std::pair{5, 8}, std::pair{0, 3}));

TEST(ProcGrid2D, RankCoordRoundTrip) {
  ProcGrid2D g(3, 5);
  for (int r = 0; r < g.nprocs(); ++r) {
    auto [cy, cz] = g.coords(r);
    EXPECT_EQ(g.rank(cy, cz), r);
  }
}

TEST(ProcGrid2D, SquarestFactorization) {
  EXPECT_EQ(ProcGrid2D::squarest(16).py(), 4);
  EXPECT_EQ(ProcGrid2D::squarest(16).pz(), 4);
  EXPECT_EQ(ProcGrid2D::squarest(25).py(), 5);
  EXPECT_EQ(ProcGrid2D::squarest(8).py(), 2);
  EXPECT_EQ(ProcGrid2D::squarest(8).pz(), 4);
  EXPECT_EQ(ProcGrid2D::squarest(7).py(), 1);
}

// -------------------------------------------------------------------- Box

TEST(Box, IntersectAndEmpty) {
  Box a{{0, 0, 0}, {9, 9, 9}};
  Box b{{5, 5, 5}, {14, 14, 14}};
  Box c = a.intersect(b);
  EXPECT_EQ(c.lo[0], 5);
  EXPECT_EQ(c.hi[0], 9);
  EXPECT_EQ(c.volume(), 125u);
  Box d{{20, 0, 0}, {25, 9, 9}};
  EXPECT_TRUE(a.intersect(d).empty());
}

TEST(Box, GrownAddsGhosts) {
  Box a{{2, 2, 2}, {4, 4, 4}};
  Box g = a.grown(2);
  EXPECT_EQ(g.lo[0], 0);
  EXPECT_EQ(g.hi[2], 6);
  EXPECT_EQ(g.volume(), 343u);
}

// ------------------------------------------------------------------ Field

TEST(Field, StoresAndRetrievesByGlobalIndex) {
  Box owned{{4, 8, 12}, {7, 11, 15}};
  Field f(5, owned, 2);
  f.at(3, 5, 9, 13) = 42.0;
  EXPECT_DOUBLE_EQ(f(3, 5, 9, 13), 42.0);
  // Ghost region is addressable.
  f.at(0, 2, 6, 10) = 1.0;
  EXPECT_DOUBLE_EQ(f(0, 2, 6, 10), 1.0);
}

TEST(Field, AtThrowsOutsideAllocation) {
  Field f(1, Box{{0, 0, 0}, {3, 3, 3}}, 1);
  EXPECT_THROW(f.at(0, 5, 0, 0), dhpf::Error);
  EXPECT_THROW(f.at(1, 0, 0, 0), dhpf::Error);
}

TEST(Field, PackUnpackRoundTrip) {
  Box owned{{0, 0, 0}, {5, 5, 5}};
  Field f(3, owned, 1);
  for (int k = -1; k <= 6; ++k)
    for (int j = -1; j <= 6; ++j)
      for (int i = -1; i <= 6; ++i)
        for (int m = 0; m < 3; ++m) f(m, i, j, k) = m + 10 * i + 100 * j + 1000 * k;
  Box sub{{1, 2, 3}, {4, 4, 5}};
  auto buf = f.pack(sub);
  Field g(3, owned, 1);
  g.unpack(sub, buf);
  EXPECT_DOUBLE_EQ(g.max_abs_diff(f, sub), 0.0);
}

TEST(Field, PackComponentRange) {
  Field f(4, Box{{0, 0, 0}, {2, 2, 2}}, 0);
  for (int m = 0; m < 4; ++m) f(m, 1, 1, 1) = m;
  Box one{{1, 1, 1}, {1, 1, 1}};
  auto buf = f.pack(one, 1, 2);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
  EXPECT_DOUBLE_EQ(buf[1], 2.0);
}

TEST(Field, CopyFromAndDiff) {
  Box owned{{0, 0, 0}, {4, 4, 4}};
  Field a(2, owned, 0), b(2, owned, 0);
  a.fill(3.0);
  b.fill(1.0);
  b.copy_from(a, Box{{1, 1, 1}, {3, 3, 3}});
  EXPECT_DOUBLE_EQ(b(0, 2, 2, 2), 3.0);
  EXPECT_DOUBLE_EQ(b(0, 0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b, Box{{1, 1, 1}, {3, 3, 3}}), 0.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b, owned), 2.0);
}

// ----------------------------------------------------------------- Decomp

TEST(Decomp2D, OwnedBoxesTileTheDomain) {
  Decomp2D d(6, 10, 11, ProcGrid2D(2, 3));
  std::size_t total = 0;
  for (int r = 0; r < d.nprocs(); ++r) total += d.owned_box(r).volume();
  EXPECT_EQ(total, d.domain().volume());
}

TEST(Decomp2D, NeighborsAreReciprocal) {
  Decomp2D d(4, 8, 8, ProcGrid2D(3, 3));
  for (int r = 0; r < d.nprocs(); ++r)
    for (int dim : {1, 2})
      for (int dir : {-1, 1}) {
        int nb = d.neighbor(r, dim, dir);
        if (nb >= 0) {
          EXPECT_EQ(d.neighbor(nb, dim, -dir), r);
        }
      }
}

TEST(Decomp2D, EdgeRanksHaveNoOutsideNeighbors) {
  Decomp2D d(4, 8, 8, ProcGrid2D(2, 2));
  EXPECT_EQ(d.neighbor(0, 1, -1), -1);
  EXPECT_EQ(d.neighbor(0, 2, -1), -1);
  EXPECT_GE(d.neighbor(0, 1, +1), 0);
}

// ----------------------------------------------------------- Halo exchange

TEST(Halo, ExchangeFillsGhostWithNeighborValues) {
  const int N = 8;
  Decomp2D d(N, N, N, ProcGrid2D(2, 2));
  sim::Engine e(4, Machine::free_network());
  bool ok = true;
  e.run([&](Process& p) -> Task {
    Field f(1, d.owned_box(p.rank()), 2);
    const Box owned = d.owned_box(p.rank());
    // Globally defined pattern so ghost correctness is checkable locally.
    for (int k = owned.lo[2]; k <= owned.hi[2]; ++k)
      for (int j = owned.lo[1]; j <= owned.hi[1]; ++j)
        for (int i = owned.lo[0]; i <= owned.hi[0]; ++i) f(0, i, j, k) = i + 10 * j + 100 * k;
    co_await exchange_halo_yz(p, d, f, 2, 100);
    // All interior-domain points within 2 of our box (faces only, no corners)
    // must now hold the global pattern.
    const Box dom = d.domain();
    for (int dim : {1, 2})
      for (int dir : {-1, +1}) {
        Box gbox = owned;
        if (dir > 0) {
          gbox.lo[dim] = owned.hi[dim] + 1;
          gbox.hi[dim] = owned.hi[dim] + 2;
        } else {
          gbox.hi[dim] = owned.lo[dim] - 1;
          gbox.lo[dim] = owned.lo[dim] - 2;
        }
        Box check = gbox.intersect(dom);
        if (check.empty()) continue;
        for (int k = check.lo[2]; k <= check.hi[2]; ++k)
          for (int j = check.lo[1]; j <= check.hi[1]; ++j)
            for (int i = check.lo[0]; i <= check.hi[0]; ++i)
              if (f(0, i, j, k) != i + 10 * j + 100 * k) ok = false;
      }
    co_return;
  });
  EXPECT_TRUE(ok);
}

TEST(Halo, SingleDimExchangeTouchesOnlyThatDim) {
  const int N = 6;
  Decomp2D d(N, N, N, ProcGrid2D(2, 2));
  sim::Engine e(4, Machine::free_network());
  bool y_ok = true, z_untouched = true;
  e.run([&](Process& p) -> Task {
    Field f(1, d.owned_box(p.rank()), 1);
    f.fill(-1.0);
    const Box owned = d.owned_box(p.rank());
    for (int k = owned.lo[2]; k <= owned.hi[2]; ++k)
      for (int j = owned.lo[1]; j <= owned.hi[1]; ++j)
        for (int i = owned.lo[0]; i <= owned.hi[0]; ++i) f(0, i, j, k) = 7.0;
    co_await exchange_halo_dim(p, d, f, 1, 1, 200);
    const int nb_y = d.neighbor(p.rank(), 1, +1);
    if (nb_y >= 0 && f(0, owned.lo[0], owned.hi[1] + 1, owned.lo[2]) != 7.0) y_ok = false;
    const int nb_z = d.neighbor(p.rank(), 2, +1);
    if (nb_z >= 0 && f(0, owned.lo[0], owned.lo[1], owned.hi[2] + 1) != -1.0)
      z_untouched = false;
    co_return;
  });
  EXPECT_TRUE(y_ok);
  EXPECT_TRUE(z_untouched);
}

TEST(Halo, MessageCountMatchesTopology) {
  // 3x3 grid: 12 internal edges per dim; 2 messages per edge per dim-exchange.
  Decomp2D d(4, 9, 9, ProcGrid2D(3, 3));
  sim::Engine e(9, Machine::free_network());
  e.run([&](Process& p) -> Task {
    Field f(1, d.owned_box(p.rank()), 1);
    co_await exchange_halo_yz(p, d, f, 1, 0);
  });
  // y-dim: 3 columns x 2 internal edges x 2 directions = 12; same for z.
  EXPECT_EQ(e.stats().messages, 24u);
}

TEST(Halo3D, ExchangeFillsGhostsInAllThreeDims) {
  const int N = 8;
  Decomp3D d(N, N, N, 2, 2, 2);
  sim::Engine e(8, Machine::free_network());
  bool ok = true;
  e.run([&](Process& p) -> Task {
    Field f(1, d.owned_box(p.rank()), 1);
    const Box owned = d.owned_box(p.rank());
    for (int k = owned.lo[2]; k <= owned.hi[2]; ++k)
      for (int j = owned.lo[1]; j <= owned.hi[1]; ++j)
        for (int i = owned.lo[0]; i <= owned.hi[0]; ++i) f(0, i, j, k) = i + 10 * j + 100 * k;
    co_await exchange_halo_xyz(p, d, f, 1, 900);
    const Box dom = d.domain();
    for (int dim = 0; dim < 3; ++dim)
      for (int dir : {-1, +1}) {
        Box gbox = owned;
        if (dir > 0) {
          gbox.lo[dim] = owned.hi[dim] + 1;
          gbox.hi[dim] = owned.hi[dim] + 1;
        } else {
          gbox.hi[dim] = owned.lo[dim] - 1;
          gbox.lo[dim] = owned.lo[dim] - 1;
        }
        const Box check = gbox.intersect(dom);
        if (check.empty()) continue;
        for (int k = check.lo[2]; k <= check.hi[2]; ++k)
          for (int j = check.lo[1]; j <= check.hi[1]; ++j)
            for (int i = check.lo[0]; i <= check.hi[0]; ++i)
              if (f(0, i, j, k) != i + 10 * j + 100 * k) ok = false;
      }
    co_return;
  });
  EXPECT_TRUE(ok);
}

TEST(Halo3D, OwnedBoxesTileDomain) {
  Decomp3D d = Decomp3D::cubic(9, 10, 11, 12);
  std::size_t vol = 0;
  for (int r = 0; r < d.nprocs(); ++r) vol += d.owned_box(r).volume();
  EXPECT_EQ(vol, 9u * 10u * 11u);
}

TEST(Halo3D, NeighborsReciprocalAllDims) {
  Decomp3D d(8, 8, 8, 2, 3, 2);
  for (int r = 0; r < d.nprocs(); ++r)
    for (int dim = 0; dim < 3; ++dim)
      for (int dir : {-1, 1}) {
        const int nb = d.neighbor(r, dim, dir);
        if (nb >= 0) {
          EXPECT_EQ(d.neighbor(nb, dim, -dir), r);
        }
      }
}

// -------------------------------------------------------------- Transpose

TEST(Transpose, ZBlockToYBlockMovesEverything) {
  const int NX = 5, NY = 12, NZ = 9;
  const int P = 4;
  Decomp1D dz(NX, NY, NZ, 2, P), dy(NX, NY, NZ, 1, P);
  sim::Engine e(P, Machine::free_network());
  double worst = 0.0;
  e.run([&](Process& p) -> Task {
    Field src(2, dz.owned_box(p.rank()), 0);
    const Box sb = dz.owned_box(p.rank());
    for (int k = sb.lo[2]; k <= sb.hi[2]; ++k)
      for (int j = sb.lo[1]; j <= sb.hi[1]; ++j)
        for (int i = sb.lo[0]; i <= sb.hi[0]; ++i)
          for (int m = 0; m < 2; ++m) src(m, i, j, k) = m + 2 * (i + 10 * j + 100 * k);
    Field dst(2, dy.owned_box(p.rank()), 0);
    co_await transpose(p, dz, src, dy, dst, 300);
    const Box db = dy.owned_box(p.rank());
    for (int k = db.lo[2]; k <= db.hi[2]; ++k)
      for (int j = db.lo[1]; j <= db.hi[1]; ++j)
        for (int i = db.lo[0]; i <= db.hi[0]; ++i)
          for (int m = 0; m < 2; ++m) {
            const double want = m + 2 * (i + 10 * j + 100 * k);
            worst = std::max(worst, std::abs(dst(m, i, j, k) - want));
          }
    co_return;
  });
  EXPECT_DOUBLE_EQ(worst, 0.0);
}

TEST(Transpose, RoundTripIsIdentity) {
  const int NX = 4, NY = 8, NZ = 8, P = 3;
  Decomp1D dz(NX, NY, NZ, 2, P), dy(NX, NY, NZ, 1, P);
  sim::Engine e(P, Machine::free_network());
  double worst = 0.0;
  e.run([&](Process& p) -> Task {
    Field a(1, dz.owned_box(p.rank()), 0);
    const Box sb = dz.owned_box(p.rank());
    for (int k = sb.lo[2]; k <= sb.hi[2]; ++k)
      for (int j = sb.lo[1]; j <= sb.hi[1]; ++j)
        for (int i = sb.lo[0]; i <= sb.hi[0]; ++i) a(0, i, j, k) = i * j + k;
    Field b(1, dy.owned_box(p.rank()), 0);
    co_await transpose(p, dz, a, dy, b, 400);
    Field c(1, dz.owned_box(p.rank()), 0);
    co_await transpose(p, dy, b, dz, c, 500);
    worst = std::max(worst, a.max_abs_diff(c, sb));
    co_return;
  });
  EXPECT_DOUBLE_EQ(worst, 0.0);
}

// --------------------------------------------------------- Multipartition

class MultiPartP : public ::testing::TestWithParam<int> {};

TEST_P(MultiPartP, EveryCellOwnedExactlyOnce) {
  const int q = GetParam();
  MultiPartMap mp(q, 4 * q, 4 * q + 1, 4 * q + 2);
  std::set<std::tuple<int, int, int>> seen;
  for (int r = 0; r < mp.nprocs(); ++r) {
    auto cells = mp.cells_of(r);
    EXPECT_EQ(cells.size(), static_cast<std::size_t>(q));
    for (const auto& c : cells) {
      EXPECT_EQ(mp.owner(c), r);
      EXPECT_TRUE(seen.insert({c.a, c.b, c.g}).second) << "cell owned twice";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(q * q * q));
}

TEST_P(MultiPartP, EveryStageGivesEveryProcessorOneCell) {
  const int q = GetParam();
  MultiPartMap mp(q, 8, 8, 8);
  for (int dim = 0; dim < 3; ++dim)
    for (int stage = 0; stage < q; ++stage) {
      std::set<int> slabs_covered;
      for (int r = 0; r < mp.nprocs(); ++r) {
        auto c = mp.cell_at_stage(r, dim, stage);
        const int coord = (dim == 0) ? c.a : (dim == 1) ? c.b : c.g;
        EXPECT_EQ(coord, stage);
        EXPECT_EQ(mp.owner(c), r);
        // The cross-section coordinates of all ranks' stage cells must tile
        // the q x q cross-section: encode the two non-swept coords.
        const int other1 = (dim == 0) ? c.b : c.a;
        const int other2 = (dim == 2) ? c.b : c.g;
        EXPECT_TRUE(slabs_covered.insert(other1 * q + other2).second);
      }
      EXPECT_EQ(slabs_covered.size(), static_cast<std::size_t>(q * q));
    }
}

TEST_P(MultiPartP, SweepSuccessorIsOnFixedNeighbor) {
  const int q = GetParam();
  if (q < 2) GTEST_SKIP();
  MultiPartMap mp(q, 8, 8, 8);
  // +x successor of every cell of (pi,pj) must be owned by (pi+1 mod q, pj).
  for (int r = 0; r < mp.nprocs(); ++r) {
    const int pi = r / q, pj = r % q;
    for (const auto& c : mp.cells_of(r)) {
      MultiPartMap::CellId nxt;
      if (!mp.neighbor_cell(c, 0, +1, &nxt)) continue;
      EXPECT_EQ(mp.owner(nxt), ((pi + 1) % q) * q + pj);
      if (mp.neighbor_cell(c, 1, +1, &nxt)) {
        EXPECT_EQ(mp.owner(nxt), pi * q + (pj + 1) % q);
      }
      if (mp.neighbor_cell(c, 2, +1, &nxt)) {
        EXPECT_EQ(mp.owner(nxt), ((pi + 1) % q) * q + (pj + 1) % q);
      }
    }
  }
}

TEST_P(MultiPartP, CellBoxesTileDomain) {
  const int q = GetParam();
  MultiPartMap mp(q, 3 * q + 1, 4 * q, 2 * q + 3);
  std::size_t vol = 0;
  for (int r = 0; r < mp.nprocs(); ++r)
    for (const auto& c : mp.cells_of(r)) vol += mp.cell_box(c).volume();
  EXPECT_EQ(vol, static_cast<std::size_t>(3 * q + 1) * (4 * q) * (2 * q + 3));
}

INSTANTIATE_TEST_SUITE_P(Q, MultiPartP, ::testing::Values(1, 2, 3, 4, 5));

TEST(MultiPart, NeighborCellStopsAtDomainEdge) {
  MultiPartMap mp(3, 9, 9, 9);
  MultiPartMap::CellId c{0, 1, 2};
  EXPECT_FALSE(mp.neighbor_cell(c, 0, -1, nullptr));
  MultiPartMap::CellId out;
  ASSERT_TRUE(mp.neighbor_cell(c, 2, -1, &out));
  EXPECT_EQ(out.g, 1);
}

}  // namespace
}  // namespace dhpf::rt
