package repro.core

import java.lang.Double.doubleToRawLongBits
import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.{SparkSpec, TestData}

class SamplesTest extends SparkSpec {

  /** SHA-256 of a sample's counts, points, weights, pairs and region, bit
    * for bit.
    */
  private def digest(js: JoinSample): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def put(x: Long): Unit = md.update(ByteBuffer.allocate(8).putLong(x).array)
    def putAll(xs: Array[Double]): Unit = { put(xs.length); xs.foreach(x => put(doubleToRawLongBits(x))) }
    put(js.sCount); put(js.tCount)
    for (ps <- Seq(js.sPoints, js.tPoints)) {
      put(ps.length)
      ps.foreach { p => putAll(p.x); putAll(Array(p.weight)) }
    }
    put(js.pairs.length)
    js.pairs.foreach { p => putAll(p.s); putAll(p.t); putAll(Array(p.weight)) }
    putAll(js.region.lo); putAll(js.region.hi)
    md.digest().map(b => f"$b%02x").mkString
  }

  test("samplePoints caps at k and weights sum to the input size") {
    val df = TestData.randomDf(spark, 1000, 2, 1)
    val (pts, total) = Samples.samplePoints(df, Seq("a1", "a2"), 100, 5)
    assert(total == 1000)
    assert(pts.length <= 100 && pts.length > 10)
    assert(math.abs(pts.map(_.weight).sum - 1000.0) < 1e-6)
  }

  test("samplePoints takes everything when k exceeds the input") {
    val df = TestData.randomDf(spark, 50, 1, 2)
    val (pts, total) = Samples.samplePoints(df, Seq("a1"), 500, 5)
    assert(total == 50 && pts.length == 50)
    assert(pts.forall(_.weight == 1.0))
  }

  test("empty input yields an empty sample") {
    val df = TestData.randomDf(spark, 10, 1, 3).filter("a1 > 100")
    val (pts, total) = Samples.samplePoints(df, Seq("a1"), 10, 5)
    assert(total == 0 && pts.isEmpty)
  }

  test("samplePairs output estimate is within 2x of the truth on uniform data") {
    val s = TestData.randomDf(spark, 2000, 1, 4).cache()
    val t = TestData.randomDf(spark, 2000, 1, 5).cache()
    val band = BandSpec(Array(0.2))
    val js = Samples.draw(s, t, Seq("a1"), band, 1600, 4000, seed = 6)
    // truth: P(|u - v| <= 0.2) with u,v ~ U[0,10] is about 0.0396
    val truth = 2000.0 * 2000.0 * 0.0396
    assert(js.outputEstimate > truth / 2 && js.outputEstimate < truth * 2,
      s"estimate ${js.outputEstimate} vs truth $truth")
  }

  test("pair subsampling rescales weights to stay unbiased") {
    val s = TestData.randomDf(spark, 500, 1, 7).cache()
    val t = TestData.randomDf(spark, 500, 1, 8).cache()
    val band = BandSpec(Array(1.0))
    val big = Samples.draw(s, t, Seq("a1"), band, 600, 100000, seed = 9)
    val small = Samples.draw(s, t, Seq("a1"), band, 600, 50, seed = 9)
    assert(small.pairs.length <= 50)
    val ratio = small.outputEstimate / big.outputEstimate
    assert(ratio > 0.99 && ratio < 1.01, s"subsampling biased the estimate: $ratio")
  }

  test("draw records exact input counts") {
    val s = TestData.randomDf(spark, 321, 1, 10)
    val t = TestData.randomDf(spark, 123, 1, 11)
    val js = Samples.draw(s, t, Seq("a1"), BandSpec(Array(0.1)), 100, 100)
    assert(js.sCount == 321 && js.tCount == 123)
  }

  test("sampling is deterministic in the seed") {
    val s = TestData.randomDf(spark, 400, 1, 12).cache()
    val (p1, _) = Samples.samplePoints(s, Seq("a1"), 50, 42)
    val (p2, _) = Samples.samplePoints(s, Seq("a1"), 50, 42)
    assert(p1.map(_.x(0)).toSeq == p2.map(_.x(0)).toSeq)
  }

  test("integer join columns are cast to double points") {
    val df = spark.range(100).selectExpr("id", "cast(id % 10 as int) as a1")
    val (pts, _) = Samples.samplePoints(df, Seq("a1"), 1000, 1)
    assert(pts.forall(p => p.x(0) == math.floor(p.x(0))))
  }

  test("sample is unbiased on input sorted across partitions") {
    // a1 = id rises through 4 partitions of 2000, 6000, 6000 and 6000
    // rows. A sampler that keeps the first k rows of an overshooting
    // Bernoulli draw under-samples the last partitions, and one that
    // ignores partition sizes over-samples the first; either moves the
    // sample mean well away from the input's.
    val n = 20000
    val df = spark.range(0, 2000, 1, 1).union(spark.range(2000, n, 1, 3))
      .selectExpr("id", "cast(id as double) as a1")
    val k = 2000
    val (pts, total) = Samples.samplePoints(df, Seq("a1"), k, 3)
    assert(total == n && pts.length == k)
    val mean = pts.map(_.x(0)).sum / k
    // The sample mean's standard error is about n/sqrt(12k) = 129; allow 4.5 of them.
    assert(math.abs(mean - (n - 1) / 2.0) < 0.03 * n, s"sample mean $mean vs ${(n - 1) / 2.0}")
  }

  test("draw runs one Spark job, through several doubling rounds and on empty inputs") {
    // Disjoint inputs: the pair sample stays empty, so the pair-source
    // sample doubles 8000 -> 16000 -> 32000 >= |S|.
    val s = spark.range(0, 20000, 1, 4).selectExpr("id", "cast(id as double) * 1e-4 as a1")
    val t = spark.range(0, 20000, 1, 4).selectExpr("id", "100 + cast(id as double) * 1e-4 as a1")
    var js: JoinSample = null
    assert(sparkJobs { js = Samples.draw(s, t, Seq("a1"), BandSpec(Array(0.1)), 1000, 1000) } == 1)
    assert(js.pairs.isEmpty && js.sCount == 20000 && js.tCount == 20000)
    assert(js.sPoints.length == 500 && js.tPoints.length == 500)
    val empty = s.filter("a1 < 0")
    assert(sparkJobs { js = Samples.draw(empty, empty, Seq("a1"), BandSpec(Array(0.1)), 1000, 1000) } == 1)
    assert(js.sCount == 0 && js.tCount == 0 && js.sPoints.isEmpty && js.pairs.isEmpty)
  }

  test("the input sample is a prefix of the pair-source sample") {
    val s = TestData.randomDf(spark, 3000, 2, 21).cache()
    val t = TestData.randomDf(spark, 3000, 2, 22).cache()
    val band = BandSpec(Array(0.1, 0.1))
    val small = Samples.draw(s, t, Seq("a1", "a2"), band, 200, 100, seed = 5)
    val large = Samples.draw(s, t, Seq("a1", "a2"), band, 2000, 100, seed = 5)
    assert(small.sPoints.map(_.x.toSeq).toSeq == large.sPoints.take(100).map(_.x.toSeq).toSeq)
    assert(small.tPoints.map(_.x.toSeq).toSeq == large.tPoints.take(100).map(_.x.toSeq).toSeq)
  }

  test("samplePairs subsamples reproducibly and keeps the weight total") {
    val rnd = new scala.util.Random(4)
    val sp = Array.fill(300)(WPoint(Array(rnd.nextDouble()), 10.0))
    val tp = Array.fill(300)(WPoint(Array(rnd.nextDouble()), 10.0))
    val band = BandSpec(Array(0.05))
    val a = Samples.samplePairs(sp, 3000, tp, 3000, band, 200, 8)
    val b = Samples.samplePairs(sp, 3000, tp, 3000, band, 200, 8)
    assert(a.length == 200)
    assert(a.map(p => (p.s.toSeq, p.t.toSeq, p.weight)).toSeq == b.map(p => (p.s.toSeq, p.t.toSeq, p.weight)).toSeq)
    val all = Samples.samplePairs(sp, 3000, tp, 3000, band, Int.MaxValue, 8)
    assert(math.abs(a.map(_.weight).sum - all.map(_.weight).sum) < 1e-6 * all.map(_.weight).sum)
  }

  test("draw is pinned on a fixed input pair") {
    val s = TestData.randomDf(spark, 3000, 2, 31, lo = -5, hi = 5)
    val t = TestData.randomDf(spark, 2500, 2, 32, skewed = true)
    val js = Samples.draw(s, t, Seq("a1", "a2"), BandSpec(Array(0.1, 0.2)), 1000, 300, seed = 17)
    assert(js.pairs.length == 300 && js.sPoints.length == 500)
    assert(digest(js) == "d49f09ab8a632c9b0c6033498e0f6d4a77f686c509a354082e263289d07330d0")
  }
}
