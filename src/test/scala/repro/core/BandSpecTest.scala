package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BandSpecTest extends AnyFunSuite {

  test("matches: inside the band in every dimension") {
    val b = BandSpec(Array(1.0, 2.0))
    assert(b.matches(Array(0.0, 0.0), Array(1.0, 2.0)))
    assert(b.matches(Array(0.0, 0.0), Array(-1.0, -2.0)))
  }

  test("matches: violating any single dimension rejects") {
    val b = BandSpec(Array(1.0, 2.0))
    assert(!b.matches(Array(0.0, 0.0), Array(1.01, 0.0)))
    assert(!b.matches(Array(0.0, 0.0), Array(0.0, 2.01)))
  }

  test("matches: band width zero is an equi-join condition") {
    val b = BandSpec(Array(0.0))
    assert(b.matches(Array(3.5), Array(3.5)))
    assert(!b.matches(Array(3.5), Array(3.5000001)))
  }

  test("matches is symmetric") {
    val b = BandSpec(Array(0.5, 0.5, 0.5))
    val s = Array(1.0, 2.0, 3.0); val t = Array(1.4, 1.6, 3.2)
    assert(b.matches(s, t) == b.matches(t, s))
  }

  test("uniform builds d equal widths") {
    val b = BandSpec.uniform(4, 2.5)
    assert(b.d == 4 && b.eps.forall(_ == 2.5))
  }

  test("negative band width is rejected") {
    assertThrows[IllegalArgumentException](BandSpec(Array(-1.0)))
  }

  test("empty band spec is rejected") {
    assertThrows[IllegalArgumentException](BandSpec(Array.empty[Double]))
  }

  test("Region.length per dimension") {
    val r = Region(Array(0.0, -1.0), Array(2.0, 3.0))
    assert(r.length(0) == 2.0 && r.length(1) == 4.0)
  }

  test("Region small check: below twice the band width") {
    val r = Region(Array(0.0), Array(3.9))
    assert(r.smallInDim(0, BandSpec(Array(2.0))))
    assert(!r.smallInDim(0, BandSpec(Array(1.9))))
  }

  test("Region never small when band width is zero") {
    val r = Region(Array(0.0), Array(0.0))
    assert(!r.smallInDim(0, BandSpec(Array(0.0))))
    assert(!r.smallEverywhere(BandSpec(Array(0.0))))
  }

  test("smallEverywhere requires all dimensions small") {
    val r = Region(Array(0.0, 0.0), Array(1.0, 100.0))
    val b = BandSpec(Array(2.0, 2.0))
    assert(r.smallInDim(0, b) && !r.smallInDim(1, b))
    assert(!r.smallEverywhere(b))
    assert(Region(Array(0.0, 0.0), Array(1.0, 1.0)).smallEverywhere(b))
  }

  test("Region.split partitions the extent at x") {
    val r = Region(Array(0.0, 0.0), Array(10.0, 10.0))
    val (l, rr) = r.split(1, 4.0)
    assert(l.hi(1) == 4.0 && rr.lo(1) == 4.0)
    assert(l.lo(0) == 0.0 && rr.hi(0) == 10.0)
  }
}
