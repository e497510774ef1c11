package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

class IndexSortTest extends AnyFunSuite {

  private val special = Seq(Double.NegativeInfinity, -Double.MaxValue, -1.5, -Double.MinPositiveValue,
    -0.0, 0.0, Double.MinPositiveValue, 1.5, Double.MaxValue, Double.PositiveInfinity,
    Double.NaN, java.lang.Double.longBitsToDouble(0xfff8000000000001L))

  test("orderKey orders doubles as java.lang.Double.compare does") {
    for (a <- special; b <- special)
      assert(java.lang.Long.compare(IndexSort.orderKey(a), IndexSort.orderKey(b)).sign ==
        java.lang.Double.compare(a, b).sign, s"$a vs $b")
  }

  test("property: byKey and stable equal a stable sortBy, ties in index order") {
    val key = Gen.oneOf(Gen.oneOf(special), Gen.choose(-3, 3).map(_.toDouble))
    Props.hold(Prop.forAll(Gen.choose(0, 70).flatMap(Gen.listOfN(_, key))) { ks =>
      val a = ks.toArray
      val byDouble = a.indices.sortBy(a(_))(Ordering.fromLessThan(java.lang.Double.compare(_, _) < 0))
      val coarse = a.map(x => math.round(x) % 3)
      val byTwo = a.indices.sortBy(i => (coarse(i), IndexSort.orderKey(a(i))))
      IndexSort.byKey(a).toSeq == byDouble &&
        IndexSort.stable(coarse, a.map(IndexSort.orderKey)).toSeq == byTwo
    })
  }
}
