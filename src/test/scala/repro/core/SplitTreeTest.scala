package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class SplitTreeTest extends AnyFunSuite {

  private def leaf(id: Int, r: Int = 1, c: Int = 1, base: Int = 0) = LeafNode(id, r, c, base)

  /** Build a random split tree over [0,10]^d, assigning consecutive
    * leaf ids and pid bases.
    */
  private def randomTree(depth: Int, d: Int, rnd: scala.util.Random,
                         maxRc: Int): SplitNode = {
    var nextId = 0
    var nextPid = 0
    def go(level: Int, lo: Array[Double], hi: Array[Double]): SplitNode = {
      if (level == 0 || rnd.nextDouble() < 0.25) {
        val r = 1 + rnd.nextInt(maxRc); val c = 1 + rnd.nextInt(maxRc)
        val l = LeafNode(nextId, r, c, nextPid)
        nextId += 1; nextPid += r * c
        l
      } else {
        val dim = rnd.nextInt(d)
        val x = lo(dim) + (0.2 + 0.6 * rnd.nextDouble()) * (hi(dim) - lo(dim))
        val dupT = rnd.nextBoolean()
        val lHi = hi.clone(); lHi(dim) = x
        val rLo = lo.clone(); rLo(dim) = x
        InnerNode(dim, x, dupT, go(level - 1, lo, lHi), go(level - 1, rLo, hi))
      }
    }
    go(depth, Array.fill(d)(0.0), Array.fill(d)(10.0))
  }

  private def treePartitioning(root: SplitNode, band: BandSpec, w: Int) =
    TreePartitioning(root, band,
      Array.tabulate(SplitTree.numPids(root))(i => i % w), w)

  test("single leaf with r=c=1 sends everything to partition 0") {
    val p = treePartitioning(leaf(0), BandSpec(Array(1.0)), 2)
    assert(p.assignS(Array(5.0), 7L).sameElements(Array(0)))
    assert(p.assignT(Array(5.0), 7L).sameElements(Array(0)))
  }

  test("T-split routes S to one side, duplicates T near the boundary") {
    val band = BandSpec(Array(1.0))
    val root = InnerNode(0, 5.0, duplicateT = true, leaf(0), leaf(1, base = 1))
    assert(SplitTree.assignS(root, band, Array(4.9), 1L).sameElements(Array(0)))
    assert(SplitTree.assignS(root, band, Array(5.0), 1L).sameElements(Array(1)))
    // T at 4.5: within ε of 5.0 → both sides
    assert(SplitTree.assignT(root, band, Array(4.5), 1L).toSet == Set(0, 1))
    // T at 3.0: only left
    assert(SplitTree.assignT(root, band, Array(3.0), 1L).sameElements(Array(0)))
    // T at 7.0: only right
    assert(SplitTree.assignT(root, band, Array(7.0), 1L).sameElements(Array(1)))
  }

  test("S-split mirrors the roles") {
    val band = BandSpec(Array(1.0))
    val root = InnerNode(0, 5.0, duplicateT = false, leaf(0), leaf(1, base = 1))
    assert(SplitTree.assignT(root, band, Array(4.9), 1L).sameElements(Array(0)))
    assert(SplitTree.assignS(root, band, Array(4.5), 1L).toSet == Set(0, 1))
  }

  test("zero band width never duplicates at a split") {
    val band = BandSpec(Array(0.0))
    val root = InnerNode(0, 5.0, duplicateT = true, leaf(0), leaf(1, base = 1))
    for (v <- Seq(4.999999, 5.0, 5.000001)) {
      assert(SplitTree.assignT(root, band, Array(v), 1L).length == 1)
    }
  }

  test("a pair ε apart after rounding meets across a split, in both roles") {
    // t − ε rounds above s, but |s − t| rounds to ε, so the pair matches.
    val (lo, hi, band) = (2.0308902962218234, 1002.0308902962219, BandSpec(Array(1000.0)))
    assert(band.matches(Array(lo), Array(hi)))
    for ((dupT, s, t) <- Seq((true, lo, hi), (false, hi, lo))) {
      val root = InnerNode(0, Math.nextUp(lo), dupT, leaf(0), leaf(1, base = 1))
      PartitionLaws.checkAll(treePartitioning(root, band, 2), band, Seq((0L, Array(s))),
        Seq((1L, Array(t))))
    }
  }

  test("at ε = ∞ a T at +∞ is copied across a split to the S left of it") {
    val band = BandSpec(Array(Double.PositiveInfinity))
    val root = InnerNode(0, 5.0, duplicateT = true, leaf(0), leaf(1, base = 1))
    assert(SplitTree.assignT(root, band, Array(Double.PositiveInfinity), 1L).toSet == Set(0, 1))
    PartitionLaws.checkAll(treePartitioning(root, band, 2), band, Seq((0L, Array(1.0))),
      Seq((1L, Array(Double.PositiveInfinity)), (2L, Array(Double.PositiveInfinity))))
  }

  test("1-Bucket leaf: S gets a full row, T a full column") {
    val l = leaf(3, r = 3, c = 4)
    val band = BandSpec(Array(1.0))
    val sPids = SplitTree.assignS(l, band, Array(1.0), 99L)
    assert(sPids.length == 4)
    val row = sPids(0) / 4
    assert(sPids.forall(p => p / 4 == row))
    val tPids = SplitTree.assignT(l, band, Array(1.0), 99L)
    assert(tPids.length == 3)
    val col = tPids(0) % 4
    assert(tPids.forall(p => p % 4 == col))
  }

  test("1-Bucket leaf: pair meets exactly at (row(s), col(t))") {
    val l = leaf(5, r = 3, c = 4)
    val band = BandSpec(Array(10.0))
    for (sSalt <- 0L until 20L; tSalt <- 0L until 20L) {
      val sp = SplitTree.assignS(l, band, Array(1.0), sSalt).toSet
      val tp = SplitTree.assignT(l, band, Array(1.0), tSalt).toSet
      val common = sp.intersect(tp)
      assert(common.size == 1)
      assert(common.head == SplitTree.pairPartition(l, Array(1.0), sSalt, Array(1.0), tSalt))
    }
  }

  test("leaves enumerates left-to-right") {
    val root = InnerNode(0, 5.0, duplicateT = true,
      InnerNode(0, 2.0, duplicateT = false, leaf(0), leaf(1, base = 1)),
      leaf(2, base = 2))
    assert(SplitTree.leaves(root).map(_.leafId) == Seq(0, 1, 2))
  }

  test("numPids sums internal grids") {
    val root = InnerNode(0, 5.0, duplicateT = true, leaf(0, 2, 3), leaf(1, 1, 1, 6))
    assert(SplitTree.numPids(root) == 7)
  }

  test("row/col choice is deterministic in the salt") {
    val l = leaf(1, r = 5, c = 7)
    assert(SplitTree.rowOf(l, 123L) == SplitTree.rowOf(l, 123L))
    assert(SplitTree.colOf(l, 123L) == SplitTree.colOf(l, 123L))
  }

  test("Example 2 structure: splits at sparse T regions give zero duplication") {
    // S = {1..10 minus 4,7}, T = {1,5,6,10}, ε=1; splits at y1=3.5, y2=7.5
    val band = BandSpec(Array(1.0))
    val root = InnerNode(0, 3.5, duplicateT = true, leaf(0),
      InnerNode(0, 7.5, duplicateT = true, leaf(1, base = 1), leaf(2, base = 2)))
    val t = Seq(1.0, 5.0, 6.0, 10.0)
    // No T value within 1 of 3.5 or 7.5 → no duplication
    val copies = t.map(v => SplitTree.assignT(root, band, Array(v), 0L).length).sum
    assert(copies == t.size)
  }

  test("property: exactly-once over random trees, 1D") {
    Props.hold(Prop.forAll(Gen.choose(0L, 10000L), Gen.choose(0.0, 2.0)) { (seed, e) =>
      val rnd = new scala.util.Random(seed)
      val band = BandSpec(Array(e))
      val root = randomTree(4, 1, rnd, 3)
      val p = treePartitioning(root, band, 4)
      val s = PartitionLaws.cloud(25, 1, seed + 1)
      val t = PartitionLaws.cloud(25, 1, seed + 2)
      PartitionLaws.checkAll(p, band, s, t)
      true
    }, minTests = 40)
  }

  test("property: exactly-once over random trees, 3D with mixed split types") {
    Props.hold(Prop.forAll(Gen.choose(0L, 10000L)) { seed =>
      val rnd = new scala.util.Random(seed)
      val band = BandSpec(Array(1.0, 0.5, 2.0))
      val root = randomTree(5, 3, rnd, 2)
      val p = treePartitioning(root, band, 6)
      val s = PartitionLaws.cloud(20, 3, seed + 1)
      val t = PartitionLaws.cloud(20, 3, seed + 2)
      PartitionLaws.checkAll(p, band, s, t)
      true
    }, minTests = 40)
  }

  test("property: tuples with NaN coordinates reach a partition at S- and T-splits") {
    Props.hold(Prop.forAll(Gen.choose(0L, 10000L)) { seed =>
      val rnd = new scala.util.Random(seed)
      val band = BandSpec(Array(1.0, 0.0, 2.0))
      val p = treePartitioning(randomTree(5, 3, rnd, 2), band, 6)
      def withNaN(pts: Seq[(Long, Array[Double])]) =
        pts.map { case (id, x) => (id, x.map(v => if (rnd.nextInt(3) == 0) Double.NaN else v)) }
      val s = withNaN(PartitionLaws.cloud(20, 3, seed + 1))
      val t = withNaN(PartitionLaws.cloud(20, 3, seed + 2))
      PartitionLaws.checkAll(p, band, s, t)
      true
    }, minTests = 40)
  }

  test("property: exactly-once with skewed data and zero band width") {
    Props.hold(Prop.forAll(Gen.choose(0L, 10000L)) { seed =>
      val rnd = new scala.util.Random(seed)
      val band = BandSpec(Array(0.0, 0.0))
      val root = randomTree(4, 2, rnd, 2)
      val p = treePartitioning(root, band, 3)
      val s = PartitionLaws.cloud(20, 2, seed + 1, skewed = true)
      val t = PartitionLaws.cloud(20, 2, seed + 2, skewed = true)
      PartitionLaws.checkAll(p, band, s, t)
      true
    }, minTests = 30)
  }
}
