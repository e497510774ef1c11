package repro

import repro.core._
import repro.baselines.GridEps

/** Empirical checks of the paper's analytical claims (§2 Lemma 1,
  * §5.1 Lemmas 2 and 3).
  */
class LemmaTest extends SparkSpec {

  test("Lemma 2: a dense ε-range forces a grid partition with >= n T-tuples") {
    // n T-tuples packed inside one ε-interval; any grid size must put all
    // of them together in some partition.
    val n = 50
    val eps = 1.0
    val band = BandSpec(Array(eps))
    val rnd = new scala.util.Random(1)
    val dense = (0 until n).map(i => (i.toLong, Array(10.0 + rnd.nextDouble() * eps)))
    val rest = (0 until 200).map(i => (1000L + i, Array(rnd.nextDouble() * 100)))
    val t = dense ++ rest
    for (mult <- Seq(0.25, 0.5, 1.0, 2.0, 7.3)) {
      val g = GridEps(band, 16, mult)
      val perPartition = scala.collection.mutable.HashMap.empty[Int, Int]
      for ((id, x) <- t; p <- g.assignT(x, id))
        perPartition(p) = perPartition.getOrElse(p, 0) + 1
      assert(perPartition.values.max >= n,
        s"grid x$mult: max partition ${perPartition.values.max} < $n")
    }
  }

  test("Lemma 3: the bound x <= sqrt(c0·c2·(1/|S|+1/|T|)) holds with measured constants") {
    import repro.data.BandSynth
    val eps = 0.05
    val n = 4000L
    val sV = BandSynth.pareto(spark, n, 1.5, 1, 5).collect().map(_.getDouble(1)).sorted
    val tV = BandSynth.pareto(spark, n, 1.5, 1, 105).collect().map(_.getDouble(1)).sorted
    // densest ε-window of S and the T mass inside the same window
    def countIn(a: Array[Double], lo: Double, hi: Double): Int =
      a.count(v => v >= lo && v <= hi)
    var bestLo = sV(0); var bestCnt = 0
    var j = 0
    for (i <- sV.indices) {
      while (j < sV.length && sV(j) <= sV(i) + eps) j += 1
      if (j - i > bestCnt) { bestCnt = j - i; bestLo = sV(i) }
    }
    val x = bestCnt.toDouble / n
    val y = countIn(tV, bestLo, bestLo + eps).toDouble / n
    // proof's key step: all S,T tuples inside an ε-window join, so
    // output >= x|S| · y|T|
    val out = LocalJoin.countMatches(sV.map(Array(_)), tV.map(Array(_)),
      BandSpec(Array(eps)))
    assert(out.toDouble >= x * n * y * n - 1e-6,
      s"output $out below dense-window product ${x * n * y * n}")
    // and hence the lemma's bound with measured c0 and c2 = x/y
    val c0 = out.toDouble / (2 * n)
    val c2 = x / y
    assert(x <= math.sqrt(c0 * c2 * (1.0 / n + 1.0 / n)) + 1e-9,
      s"x=$x exceeds Lemma 3 bound")
  }

  test("Lemma 3 precondition fails on reverse-Pareto: fraction stays high") {
    import repro.data.BandSynth
    // T mass piles up within a tiny range near 1e6 regardless of n.
    def maxFraction(n: Long): Double = {
      val vals = BandSynth.rvPareto(spark, n, 1.5, 1, 6).collect().map(_.getDouble(1))
      vals.count(_ > 1e6 - 2000.0).toDouble / n
    }
    assert(maxFraction(2000) > 0.5)
    assert(maxFraction(8000) > 0.5) // no shrink with n — Grid-ε stays broken
  }

  test("Lemma 1: every strategy's metrics respect both lower bounds") {
    val band = BandSpec(Array(0.5))
    val s = TestData.randomDf(spark, 150, 1, 21).cache()
    val t = TestData.randomDf(spark, 150, 1, 22).cache()
    val sample = Samples.draw(s, t, Seq("a1"), band, 300, 300, seed = 23)
    val region = RecPart.exactBounds(s, t, Seq("a1"))
    val parts: Seq[BandPartitioning] = Seq(
      RecPart.optimize(sample, region, band, RecPartConfig(4)).partitioning,
      repro.baselines.OneBucket.forWorkers(4),
      GridEps(band, 4),
      repro.baselines.CsIo.build(s, t, Seq("a1"), band, 4, sample))
    for (p <- parts) {
      val pairs = BandJoinExec.pairs(s, t, Seq("a1"), band, p)
      val m = Metrics.compute(s, t, Seq("a1"), p, pairs)
      assert(m.i >= m.inputLowerBound)
      assert(m.lm >= m.l0 - 1e-9)
    }
  }
}
