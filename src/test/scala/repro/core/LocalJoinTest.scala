package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class LocalJoinTest extends AnyFunSuite {

  private def brute(s: Array[Array[Double]], t: Array[Array[Double]],
                    band: BandSpec): Set[(Int, Int)] =
    (for (i <- s.indices; j <- t.indices if band.matches(s(i), t(j))) yield (i, j)).toSet

  test("1D join matches brute force") {
    val s = Array(1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 9.0, 10.0).map(Array(_))
    val t = Array(1.0, 5.0, 6.0, 10.0).map(Array(_))
    val b = BandSpec(Array(1.0))
    assert(LocalJoin.join(s, t, b).toSet == brute(s, t, b))
  }

  test("band width zero finds only exact matches") {
    val s = Array(Array(1.0), Array(2.0), Array(2.0))
    val t = Array(Array(2.0), Array(3.0))
    val b = BandSpec(Array(0.0))
    assert(LocalJoin.join(s, t, b).toSet == Set((1, 0), (2, 0)))
  }

  test("3D join matches brute force") {
    val rnd = new scala.util.Random(5)
    val s = Array.fill(120)(Array.fill(3)(rnd.nextDouble() * 10))
    val t = Array.fill(110)(Array.fill(3)(rnd.nextDouble() * 10))
    val b = BandSpec(Array(0.7, 1.5, 0.3))
    assert(LocalJoin.join(s, t, b).toSet == brute(s, t, b))
  }

  test("empty inputs produce no pairs") {
    val b = BandSpec(Array(1.0))
    assert(LocalJoin.join(Array.empty, Array(Array(1.0)), b).isEmpty)
    assert(LocalJoin.join(Array(Array(1.0)), Array.empty, b).isEmpty)
  }

  test("countMatches agrees with join length") {
    val rnd = new scala.util.Random(7)
    val s = Array.fill(200)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val t = Array.fill(180)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val b = BandSpec(Array(0.05, 0.4))
    assert(LocalJoin.countMatches(s, t, b) == LocalJoin.join(s, t, b).length)
  }

  test("property: random 1D inputs equal brute force") {
    val gen = Gen.listOfN(40, Gen.choose(0.0, 20.0))
    Props.hold(Prop.forAll(gen, gen, Gen.choose(0.0, 3.0)) { (sv, tv, e) =>
      val s = sv.map(Array(_)).toArray
      val t = tv.map(Array(_)).toArray
      val b = BandSpec(Array(e))
      LocalJoin.join(s, t, b).toSet == brute(s, t, b)
    })
  }

  test("property: random 2D inputs equal brute force") {
    val pt = Gen.zip(Gen.choose(0.0, 10.0), Gen.choose(0.0, 10.0)).map { case (a, b) => Array(a, b) }
    Props.hold(Prop.forAll(Gen.listOfN(30, pt), Gen.listOfN(30, pt)) { (sv, tv) =>
      val b = BandSpec(Array(1.0, 0.5))
      LocalJoin.join(sv.toArray, tv.toArray, b).toSet == brute(sv.toArray, tv.toArray, b)
    })
  }

  /** Points for `band`: lattice points one band width apart (on cell
    * boundaries, so many pairs are exactly ε apart, some jittered to just
    * across a boundary) or uniform points,
    * shifted by `offset` (negative values, or rv-pareto's 1e6 scale). A
    * dimension with ε = 0 always takes lattice values, so that it has
    * exact matches.
    */
  private def points(band: BandSpec, offset: Double, lattice: Boolean): Gen[Array[Array[Double]]] = {
    val coord = (0 until band.d).toList.map { i =>
      val e = band.eps(i)
      if (e == 0) Gen.choose(0, 1).map(offset + _)
      else if (lattice) Gen.zip(Gen.choose(-1, 2), Gen.oneOf(0.0, 0.0, 1e-17, -1e-17))
        .map { case (m, jitter) => offset + m * e + jitter }
      else Gen.choose(-2.0, 2.0).map(offset + _ * e)
    }
    Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, Gen.sequence[List[Double], Double](coord)))
      .map(_.map(_.toArray).toArray)
  }

  private val instance = for {
    d <- Gen.choose(1, 8)
    eps <- Gen.listOfN(d, Gen.oneOf(Gen.const(0.0), Gen.oneOf(0.1, 0.25, 0.3, 1.0), Gen.choose(0.01, 2.0)))
    band = BandSpec(eps.toArray)
    offset <- Gen.oneOf(0.0, -3.7, 1e6, -1e6)
    lattice <- Gen.oneOf(true, false)
    s <- points(band, offset, lattice)
    t <- points(band, offset, lattice)
  } yield (s, t, band)

  test("property: d up to 8, mixed and zero band widths, offsets and lattices equal brute force") {
    Props.hold(Prop.forAll(instance) { case (s, t, b) =>
      val out = LocalJoin.join(s, t, b)
      val truth = brute(s, t, b)
      Prop(out.length == out.toSet.size && out.toSet == truth) :| s"$b: ${out.length} vs ${truth.size}"
    }, minTests = 400)
  }

  test("property: countMatches equals join length on the same instances") {
    Props.hold(Prop.forAll(instance) { case (s, t, b) =>
      LocalJoin.countMatches(s, t, b) == LocalJoin.join(s, t, b).length
    }, minTests = 200)
  }

  /** Points that stress the cell signature: most sit in one of three
    * clusters (around 0, or 300 cells up or down, so a dimension's cells
    * span far more than 127) on a lattice of pitch ε, so neighbours are
    * exactly ε apart; some coordinates are ±Inf, NaN, or ±1e300, whose
    * cell at ε = 1e-300 is outside the `Long` range.
    */
  private def wildPoints(band: BandSpec): Gen[Array[Array[Double]]] = {
    val pitch = band.eps.map(e => if (e == 0 || e.isInfinite) 1.0 else e)
    val wild = Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, 1e300, -1e300)
    val point = for {
      cluster <- Gen.frequency(3 -> 0, 1 -> 300, 1 -> -300)
      steps <- Gen.listOfN(band.d, Gen.choose(0, 1))
      nudge <- Gen.listOfN(band.d, Gen.frequency(6 -> 0, 1 -> 1, 1 -> -1))
      spoilt <- Gen.frequency(3 -> -1, 1 -> Gen.choose(0, band.d - 1))
      w <- wild
    } yield Array.tabulate(band.d) { i =>
      val v = (cluster + steps(i)) * pitch(i)
      if (i == spoilt) w
      else if (nudge(i) > 0) Math.nextUp(v)
      else if (nudge(i) < 0) Math.nextDown(v)
      else v
    }
    Gen.choose(0, 30).flatMap(n => Gen.listOfN(n, point)).map(_.toArray)
  }

  private val wildInstance = for {
    d <- Gen.choose(1, 12)
    eps <- Gen.listOfN(d, Gen.frequency(
      1 -> Gen.const(0.0), 1 -> Gen.const(Double.PositiveInfinity), 1 -> Gen.const(1e-300),
      4 -> Gen.oneOf(0.1, 0.25, 1.0), 2 -> Gen.choose(0.01, 2.0)))
    band = BandSpec(eps.toArray)
    s <- wildPoints(band)
    t <- wildPoints(band)
  } yield (s, t, band)

  test("property: d up to 12, ±Inf, NaN, cells outside Long and spans over 127 cells equal brute force") {
    Props.hold(Prop.forAll(wildInstance) { case (s, t, b) =>
      val out = LocalJoin.join(s, t, b)
      val truth = brute(s, t, b)
      Prop(out.length == out.toSet.size && out.toSet == truth) :| s"$b: ${out.length} vs ${truth.size}"
    }, minTests = 400)
  }

  test("the match order of a fixed instance is pinned") {
    // Eight dimensions: A1, two grid dimensions and five signature lanes.
    val rnd = new scala.util.Random(19)
    def pts(n: Int) = Array.fill(n)(Array.fill(8)(math.round(rnd.nextDouble() * 6) / 4.0))
    val (s, t) = (pts(30), pts(30))
    val order = LocalJoin.join(s, t, BandSpec.uniform(8, 0.5)).map { case (i, j) => s"$i:$j" }
    // Captured before the signature filter: it only skips non-matches.
    assert(order.mkString(" ") ==
      "0:23 1:0 5:24 5:28 6:20 8:27 8:21 8:10 11:1 14:2 17:1 20:16 20:21 20:15 22:4 22:23 26:29 29:12 29:3")
  }

  test("pairs exactly ε apart across cell boundaries and zero are all found") {
    // Lattice of pitch ε around 0 and around 1e6: every neighbour pair is
    // ε apart in a grid dimension, and s − t rounds in both directions.
    for (off <- Seq(0.0, 1e6); e <- Seq(0.1, 0.3, 0.25)) {
      val pts = (for (i <- -3 to 3; j <- -3 to 3) yield Array(off + i * e, off + j * e, off + i * e)).toArray
      val b = BandSpec(Array(e, e, e))
      assert(LocalJoin.join(pts, pts, b).toSet == brute(pts, pts, b), s"offset $off, ε $e")
    }
  }

  test("a difference that rounds down to exactly ε matches in A1 and in a grid dimension") {
    // 1/3 − (−1e-17) rounds to 1/3, but −1e-17 lies below the rounded
    // s − ε = 0, in the cell below it.
    val e = 1.0 / 3
    val b = BandSpec(Array(e, e))
    val s = Array(Array(e, e))
    val t = Array(Array(-1e-17, 0.0), Array(0.0, -1e-17), Array(-1e-17, -1e-17))
    assert(t.forall(b.matches(s(0), _)))
    assert(LocalJoin.join(s, t, b).toSet == Set((0, 0), (0, 1), (0, 2)))
  }

  test("an infinite coordinate matches every finite one at ε = ∞, in A1 too") {
    val b = BandSpec(Array(Double.PositiveInfinity, 1.0))
    val s = Array(Array(Double.NegativeInfinity, 0.0), Array(Double.PositiveInfinity, 0.0), Array(3.0, 0.0))
    val t = Array(Array(5.0, 0.5), Array(Double.PositiveInfinity, 0.0), Array(Double.NaN, 0.0))
    assert(LocalJoin.join(s, t, b).toSet == brute(s, t, b))
    assert(brute(s, t, b) == Set((0, 0), (0, 1), (1, 0), (2, 0), (2, 1)))
  }

  test("NaN coordinates match nothing") {
    val b = BandSpec(Array(1.0, 1.0))
    val s = Array(Array(0.0, Double.NaN), Array(Double.NaN, 0.0), Array(0.0, 0.0))
    val t = Array(Array(0.0, 0.0), Array(0.0, Double.NaN))
    assert(LocalJoin.join(s, t, b).toSet == Set((2, 0)))
  }

  test("lowerBound finds first index >= key") {
    val a = Array(1.0, 2.0, 2.0, 5.0)
    assert(LocalJoin.lowerBound(a, 0.0) == 0)
    assert(LocalJoin.lowerBound(a, 2.0) == 1)
    assert(LocalJoin.lowerBound(a, 2.5) == 3)
    assert(LocalJoin.lowerBound(a, 6.0) == 4)
  }

  test("duplicate values are all matched") {
    val s = Array.fill(5)(Array(3.0))
    val t = Array.fill(4)(Array(3.0))
    assert(LocalJoin.join(s, t, BandSpec(Array(0.0))).length == 20)
  }
}
