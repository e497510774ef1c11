package repro.baselines

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Pairs that match with `|s − t|` rounding to the band width, the last
  * partner before `BandSpec.matches` fails, placed on both sides of a
  * split and in two singleton boxes. Each must be produced exactly once.
  */
class EpsEdgeTest extends AnyFunSuite {
  import EpsEdgeTest._

  /** (s, t, ε), t the last partner of s on a random side. */
  private val edgePairs: Gen[(Double, Double, Double)] = (for {
    s <- Gen.oneOf(Gen.choose(-1e6, 1e6), Gen.choose(-1.0, 1.0), Gen.choose(0, 4000).map(_ * 0.1))
    e <- Gen.oneOf(Gen.choose(0.0, 1e3), Gen.choose(0.0, 1.0), Gen.choose(1, 3).map(_ * 0.1))
    up <- Gen.oneOf(true, false)
  } yield lastPartner(s, e, up).map((s, _, e))).suchThat(_.nonEmpty).map(_.get)

  test("property: a pair ε apart after rounding meets once across a split and in its boxes") {
    Props.hold(Prop.forAllNoShrink(edgePairs) { case (sv, tv, e) =>
      val band = BandSpec(Array(e))
      val s = Seq((0L, Array(sv)))
      val t = Seq((1L, Array(tv)))
      for (x <- Seq(Math.nextUp(math.min(sv, tv)), math.max(sv, tv)); dupT <- Seq(true, false)) {
        val root = InnerNode(0, x, dupT, LeafNode(0, 1, 1, 0), LeafNode(1, 1, 1, 1))
        PartitionLaws.checkAll(TreePartitioning(root, band, Array(0, 1), 2), band, s, t)
      }
      PartitionLaws.checkAll(singletonCover(sv, tv, band), band, s, t)
      true
    }, minTests = 2000)
  }
}

object EpsEdgeTest {

  /** A one-tuple range at v: count 1, box [v, v]. */
  def box(v: Double): CsIo.RangeStats = {
    val r = new CsIo.RangeStats(1)
    r.count = 1
    Region.widen(r.box, 0, v, v)
    r
  }

  /** The cover of one S range [s, s] and one T range [t, t]: one region
    * if `CsIo.boxesJoinable` keeps their cell, else only the inert one.
    */
  def singletonCover(s: Double, t: Double, band: BandSpec): MatrixCover = {
    val cells = CsIo.boxesJoinable(Array(box(s)), Array(box(t)), band)(0).map(_.toLong)
    MatrixCover(Array.empty, Array.empty, 1, cells.map(_ -> 0).toMap,
      cells.map(_ => 2.0), cells.map(_ => 1.0), 2)
  }

  /** The farthest partner of s above (`up`) or below it in band width e:
    * t starts at s ± e and walks by ulps, back until it matches, then out
    * while the next value still matches; None if 64 steps do not find it.
    */
  def lastPartner(s: Double, e: Double, up: Boolean): Option[Double] = {
    val band = BandSpec(Array(e))
    def m(t: Double) = band.matches(Array(s), Array(t))
    def out(t: Double) = if (up) Math.nextUp(t) else Math.nextDown(t)
    def in(t: Double) = if (up) Math.nextDown(t) else Math.nextUp(t)
    var t = if (up) s + e else s - e
    var steps = 0
    while (!m(t) && steps < 64) { t = in(t); steps += 1 }
    while (m(t) && m(out(t)) && steps < 64) { t = out(t); steps += 1 }
    Option.when(m(t) && !m(out(t)))(t)
  }
}
