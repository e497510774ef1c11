package repro.exp

import repro.{Oracle, SparkSpec, TestData}
import repro.core._

class CalibrateTest extends SparkSpec {

  test("epsForRatio hits the target output ratio within 2x") {
    val s = TestData.randomDf(spark, 2000, 1, 1).cache()
    val t = TestData.randomDf(spark, 2000, 1, 2).cache()
    val target = 3.0
    val band = Calibrate.epsForRatio(s, t, Seq("a1"), Array(1.0), target)
    val out = Oracle.pairIds(s, t, Seq("a1"), band,
      repro.baselines.OneBucket.forWorkers(4)).count()
    val ratio = out.toDouble / 4000
    assert(ratio > target / 2 && ratio < target * 2, s"ratio=$ratio eps=${band.eps(0)}")
  }

  test("the tables calibrate a family's band once per session and arguments") {
    val first = PaperTables.paretoEps(spark, 1.5, 1, 2.0)
    var again: BandSpec = null
    assert(sparkJobs { again = PaperTables.paretoEps(spark, 1.5, 1, 2.0) } == 0)
    assert(again eq first)
  }

  test("epsForRatio scales all dimensions by the same multiplier") {
    val s = TestData.randomDf(spark, 1000, 2, 3).cache()
    val t = TestData.randomDf(spark, 1000, 2, 4).cache()
    val band = Calibrate.epsForRatio(s, t, Seq("a1", "a2"), Array(1.0, 2.0), 1.0)
    assert(math.abs(band.eps(1) / band.eps(0) - 2.0) < 1e-9)
  }

  test("larger targets require larger bands") {
    val s = TestData.randomDf(spark, 1500, 1, 5).cache()
    val t = TestData.randomDf(spark, 1500, 1, 6).cache()
    val small = Calibrate.epsForRatio(s, t, Seq("a1"), Array(1.0), 0.5)
    val big = Calibrate.epsForRatio(s, t, Seq("a1"), Array(1.0), 5.0)
    assert(big.eps(0) > small.eps(0))
  }

  test("quantizeForEquiRatio produces a pitch giving roughly the target") {
    val target = 3.0
    val q = Calibrate.quantizeForEquiRatio(spark, 1.5, 2000, target)
    assert(q > 0)
    import repro.data.BandSynth
    val s = BandSynth.pareto(spark, 2000, 1.5, 1, 13, quantize = q)
    val t = BandSynth.pareto(spark, 2000, 1.5, 1, 113, quantize = q)
    val out = Oracle.pairIds(s, t, Seq("a1"), BandSpec(Array(0.0)),
      repro.baselines.OneBucket.forWorkers(4)).count()
    val ratio = out.toDouble / 4000
    assert(ratio > target / 4 && ratio < target * 4, s"ratio=$ratio q=$q")
  }

  test("outputEstimate is monotone in the band multiplier") {
    val s = TestData.randomDf(spark, 800, 1, 7)
    val t = TestData.randomDf(spark, 800, 1, 8)
    val (sp, sc) = Samples.samplePoints(s, Seq("a1"), 400, 1)
    val (tp, tc) = Samples.samplePoints(t, Seq("a1"), 400, 2)
    val e1 = Calibrate.outputEstimate(sp, sc, tp, tc, Array(1.0), 0.01)
    val e2 = Calibrate.outputEstimate(sp, sc, tp, tc, Array(1.0), 0.1)
    assert(e2 >= e1)
  }
}
