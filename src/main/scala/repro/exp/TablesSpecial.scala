package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.{GridEps, OneBucket}
import repro.core._
import repro.data.BandSynth
import repro.exp.PaperTables.{W, ebirdCloud, paretoPair}

/** The non-competition tables: grid tuning (5, 6), IEJoin (7/11),
  * cost-ratio sensitivity (8/13), symmetric partitioning (9/14),
  * running-time model accuracy (12) and the theoretical termination
  * study on PTF data (16).
  */
object TablesSpecial {

  private def rvPair(spark: SparkSession, rows: Long, z: Double, d: Int) = (
    BandSynth.pareto(spark, rows, z, d, seed = 1001),
    BandSynth.rvPareto(spark, rows, z, d, seed = 2002))

  // -------------------------------------------------------------------
  // Table 5 — Grid-ε vs Grid*: grid-size impact on (model) join time
  // -------------------------------------------------------------------

  def table5(spark: SparkSession): TableOutput = {
    val (s, t) = paretoPair(spark, Scales.ParetoRows, 1.5, 3)
    val eps = Calibrate.epsForRatio(s, t, BandSynth.dims(3),
      Array(1.0, 1.0, 1.0), 1120.0 / 400)
    val prep = Harness.prepare(ExpConfig("table5", s, t, BandSynth.dims(3), eps, W))
    // the paper sweeps absolute grid sizes 1..64 with ε = 2, i.e.
    // multipliers 0.5 .. 32 of the band width
    val mults = Seq(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    val paperJt = Map(0.5 -> 2993.0, 1.0 -> 3021.0, 2.0 -> 1023.0, 4.0 -> 533.0,
      8.0 -> 389.0, 16.0 -> 336.0, 32.0 -> 344.0)
    val gridRows = mults.map { m =>
      val r = Harness.gridEps(prep, m).get
      (m, r)
    }
    val star = Harness.gridStar(prep).get
    val rec = Harness.recPart(prep, symmetric = false)
    val cs = Harness.csIo(prep)
    val ob = Harness.oneBucket(prep)

    val lines =
      gridRows.map { case (m, r) =>
        f"Grid(x$m%5.1f)  I=${r.i}%9d Im=${r.im}%8d Om=${r.om}%8d predJT=${r.predicted}%12.0f" +
          f" | paper jt=${paperJt(m)}%6.0f"
      } ++ Seq(
        f"Grid*       ${star.detail}%-12s I=${star.i}%9d Im=${star.im}%8d predJT=${star.predicted}%12.0f | paper: I=460 Im=16 jt=335",
        f"RecPart-S   I=${rec.i}%9d Im=${rec.im}%8d predJT=${rec.predicted}%12.0f | paper: I=404 Im=15 jt=286",
        f"CS_IO       I=${cs.i}%9d Im=${cs.im}%8d predJT=${cs.predicted}%12.0f | paper: I=652 Im=19 jt=459",
        f"1-Bucket    I=${ob.i}%9d Im=${ob.im}%8d predJT=${ob.predicted}%12.0f | paper: I=2200 Im=73 jt=1236")
    val bestGrid = gridRows.map(_._2.predicted).min
    val checks = Seq(
      ("coarsening beats the default ε grid",
        bestGrid < gridRows.find(_._1 == 1.0).get._2.predicted),
      ("Grid* finds a grid within 25% of the best swept grid",
        star.predicted <= bestGrid * 1.25),
      ("RecPart-S beats the best grid", rec.predicted <= bestGrid * 1.05))
    prep.pairs.unpersist()
    TableOutput("Table 5: Grid-ε grid-size sweep vs Grid*, pareto-1.5 d=3", lines, checks)
  }

  // -------------------------------------------------------------------
  // Table 6 — Grid* vs RecPart on hard distributions
  // -------------------------------------------------------------------

  def table6(spark: SparkSession): TableOutput = {
    def run(label: String, mk: () => ExpConfig, paperRec: String, paperStar: String) = {
      val prep = Harness.prepare(mk())
      val rec = Harness.recPart(prep, symmetric = true)
      val star = Harness.gridStar(prep).get
      val line =
        f"$label%-28s RecPart: I=${rec.i}%8d Im=${rec.im}%8d Om=${rec.om}%6d | " +
          f"Grid* ${star.detail}%-12s I=${star.i}%8d Im=${star.im}%8d Om=${star.om}%6d" +
          f" | paper RecPart: $paperRec | paper Grid*: $paperStar"
      prep.pairs.unpersist()
      (line, rec, star)
    }
    val (s20, t20) = paretoPair(spark, Scales.ParetoRows, 2.0, 3)
    val epsP = Calibrate.epsForRatio(s20, t20, BandSynth.dims(3),
      Array(1.0, 1.0, 1.0), 3200.0 / 400)
    val r1 = run("pareto-2.0 bw~(2,2,2)", () => {
      val (s, t) = paretoPair(spark, Scales.ParetoRows, 2.0, 3)
      ExpConfig("t6-pareto2", s, t, BandSynth.dims(3), epsP, W)
    }, "406/14/111", "grid 8: 497/17/130")
    val r2 = run("rv-pareto-1.5 bw=(1K,1K,1K)", () => {
      val (s, t) = rvPair(spark, Scales.ParetoRows, 1.5, 3)
      ExpConfig("t6-rv1k", s, t, BandSynth.dims(3), BandSpec.uniform(3, 1000.0), W)
    }, "400/13/0", "grid 2750: 882/237/0")
    val r3 = run("rv-pareto-1.5 bw=(2K,2K,2K)", () => {
      val (s, t) = rvPair(spark, Scales.ParetoRows, 1.5, 3)
      ExpConfig("t6-rv2k", s, t, BandSynth.dims(3), BandSpec.uniform(3, 2000.0), W)
    }, "401/13/0", "grid 11500: 1207/401/0")
    val checks = Seq(
      ("rv-pareto 1K: RecPart Im at least 3x below Grid*'s",
        r2._2.im.toDouble * 3 <= r2._3.im.toDouble),
      ("rv-pareto 2K: RecPart Im at least 3x below Grid*'s",
        r3._2.im.toDouble * 3 <= r3._3.im.toDouble),
      ("pareto-2.0: Grid* is competitive on I (within 2x of RecPart)",
        r1._3.i <= r1._2.i * 2))
    TableOutput("Table 6: Grid* vs RecPart (reverse-Pareto breaks grids)",
      Seq(r1._1, r2._1, r3._1), checks)
  }

  // -------------------------------------------------------------------
  // Table 7 / 11 — distributed IEJoin quantile partitioning
  // -------------------------------------------------------------------

  def table7(spark: SparkSession): TableOutput = {
    val (s15, t15) = paretoPair(spark, Scales.ParetoRows, 1.5, 3)
    val eps = Calibrate.epsForRatio(s15, t15, BandSynth.dims(3),
      Array(1.0, 1.0, 1.0), 1120.0 / 400)
    val blockSizes = Seq(12500, 6000, 3000)
    val rows = Seq(
      ("z=1.5 bw=0", 1.5, BandSpec.uniform(3, 0.0),
        "RecPart-S 401/14/0 vs IEJoin(12524) 726/25/0"),
      ("z=1.5 bw~(2,2,2)", 1.5, eps,
        "RecPart-S 404/15/29 vs IEJoin(7422) 1070/45/21"),
      ("z=1.0 bw~(2,2,2)", 1.0, eps,
        "RecPart-S 401/13/17 vs IEJoin(6263) 1080/37/26"),
      ("z=0.5 bw~(2,2,2)", 0.5, eps,
        "RecPart-S 401/13/0.3 vs IEJoin(8295) 796/17/2"))
    val lines = scala.collection.mutable.ArrayBuffer.empty[String]
    val checks = scala.collection.mutable.ArrayBuffer.empty[(String, Boolean)]
    for ((label, z, band, paper) <- rows) {
      val (s, t) = paretoPair(spark, Scales.ParetoRows, z, 3)
      val prep = Harness.prepare(ExpConfig(label, s, t, BandSynth.dims(3), band, W))
      val rec = Harness.recPart(prep, symmetric = false)
      val ies = blockSizes.map(b => Harness.ieJoin(prep, b))
      val bestIe = ies.minBy(_.predicted)
      lines += f"--- $label | paper: $paper ---"
      lines += f"  RecPart-S        I=${rec.i}%8d Im=${rec.im}%8d Om=${rec.om}%8d predJT=${rec.predicted}%12.0f"
      ies.foreach { ie =>
        lines += f"  ${ie.name}%-16s I=${ie.i}%8d Im=${ie.im}%8d Om=${ie.om}%8d predJT=${ie.predicted}%12.0f ${ie.detail}"
      }
      checks += ((s"$label: best IEJoin duplicates more input than RecPart-S",
        bestIe.i > rec.i))
      checks += ((s"$label: RecPart-S predicted time beats best IEJoin",
        rec.predicted <= bestIe.predicted * 1.05))
      prep.pairs.unpersist()
      s.unpersist(); t.unpersist()
    }
    TableOutput("Table 7/11: RecPart-S vs distributed IEJoin (pareto-z, d=3, w=30)",
      lines.toSeq, checks.toSeq)
  }

  // -------------------------------------------------------------------
  // Table 8 / 13 — impact of the local-join cost ratio β2/β1
  // -------------------------------------------------------------------

  def table8(spark: SparkSession): TableOutput = {
    val (e, c) = ebirdCloud(spark)
    val eps = Calibrate.epsForRatio(e, c, BandSynth.dims(3),
      Array(10.0, 1.0, 1.0), 2134.0 / 890)
    val prep = Harness.prepare(ExpConfig("table8", e, c, BandSynth.dims(3), eps, W))
    val betas = Seq(1e-4, 1e-2, 1.0, 1e2, 1e4)
    val recs = betas.map { b =>
      (b, Harness.recPart(prep, symmetric = true,
        model = CostModel.paperStyle(1.0, b)))
    }
    // competitors are β-independent (they ignore the model)
    val cs = Harness.csIo(prep); val ob = Harness.oneBucket(prep)
    val ge = Harness.gridEps(prep).get
    def lm(r: StrategyResult): Double = 4.0 * r.im + r.om
    val lines = recs.map { case (b, r) =>
      f"beta2=$b%8.4f  RecPart: I=${r.i}%8d Lm(4Im+Om)=${lm(r)}%12.0f"
    } ++ Seq(
      f"(any beta)    CS_IO:   I=${cs.i}%8d Lm=${lm(cs)}%12.0f | paper I=1830 Lm=502",
      f"(any beta)    1-Bucket:I=${ob.i}%8d Lm=${lm(ob)}%12.0f | paper I=4832 Lm=711",
      f"(any beta)    Grid-eps:I=${ge.i}%8d Lm=${lm(ge)}%12.0f | paper I=10800 Lm=1518",
      "paper RecPart: I 890.34->890.8, Lm 289->189 as beta2 grows")
    val first = recs.head._2; val last = recs.last._2
    val checks = Seq(
      ("I is non-decreasing in beta2", last.i >= first.i),
      ("Lm is non-increasing in beta2", lm(last) <= lm(first) + 1e-9),
      ("RecPart's Lm beats every competitor at beta2=1",
        lm(recs(2)._2) <= Seq(lm(cs), lm(ob), lm(ge)).min))
    prep.pairs.unpersist()
    TableOutput("Table 8/13: cost-ratio sensitivity, ebird join cloud, w=30",
      lines, checks)
  }

  // -------------------------------------------------------------------
  // Table 9 / 14 — RecPart-S vs RecPart (symmetric partitioning)
  // -------------------------------------------------------------------

  def table9(spark: SparkSession): TableOutput = {
    val lines = scala.collection.mutable.ArrayBuffer.empty[String]
    val checks = scala.collection.mutable.ArrayBuffer.empty[(String, Boolean)]
    def run(label: String, mk: () => ExpConfig, paper: String,
            expectSymWin: Boolean): Unit = {
      val prep = Harness.prepare(mk())
      // Whether RecPart-S strands half the input depends on the draw, so
      // these rows run sample seeds 1-5, fixed here, and check the median.
      val runs =
        if (expectSymWin) (1 to 5).map(seed => (s"$label seed $seed", prep.withSampleSeed(seed)))
        else Seq((label, prep))
      val (asym, sym) = runs.map { case (tag, p) =>
        val (a, b) = (Harness.recPart(p, symmetric = false), Harness.recPart(p, symmetric = true))
        lines += f"$tag%-36s RecPart-S: I=${a.i}%8d Im=${a.im}%8d Om=${a.om}%7d" +
          f" | RecPart: I=${b.i}%8d Im=${b.im}%8d Om=${b.om}%7d | paper: $paper"
        (a, b)
      }.unzip
      def medianIm(rs: Seq[StrategyResult]): Long = rs.map(_.im).sorted.apply(rs.length / 2)
      if (expectSymWin)
        checks += ((s"$label: symmetric at least halves the median Im of sample seeds 1-5",
          medianIm(sym) * 2 <= medianIm(asym)))
      else
        checks += ((s"$label: symmetric within 2x on predicted time",
          sym.head.predicted <= asym.head.predicted * 2.0))
      prep.pairs.unpersist()
      prep.cfg.s.unpersist(); prep.cfg.t.unpersist()
    }
    val (s10, t10) = paretoPair(spark, Scales.ParetoRows, 1.0, 3)
    val epsP = Calibrate.epsForRatio(s10, t10, BandSynth.dims(3),
      Array(1.0, 1.0, 1.0), 420.0 / 400)
    run("pareto-1.0 bw~(2,2,2)", () => {
      val (s, t) = paretoPair(spark, Scales.ParetoRows, 1.0, 3)
      ExpConfig("t9-p10", s, t, BandSynth.dims(3), epsP, W)
    }, "S 401/13/17 vs 401/12/21", expectSymWin = false)
    val (e, c) = ebirdCloud(spark)
    val epsE = Calibrate.epsForRatio(e, c, BandSynth.dims(3),
      Array(10.0, 1.0, 1.0), 2134.0 / 890)
    run("ebird-cloud bw~(2,2,2)", () => {
      val (s, t) = ebirdCloud(spark)
      ExpConfig("t9-ec", s, t, BandSynth.dims(3), epsE, W)
    }, "S 899/32/66 vs 891/31/67", expectSymWin = false)
    run("rv-pareto-1.5 d=3 bw=(1K)^3", () => {
      val (s, t) = rvPair(spark, Scales.ParetoRows, 1.5, 3)
      ExpConfig("t9-rv1k", s, t, BandSynth.dims(3), BandSpec.uniform(3, 1000.0), W)
    }, "S 452/143/0 vs 400/13/0", expectSymWin = true)
    run("rv-pareto-1.5 d=3 bw=(2K)^3", () => {
      val (s, t) = rvPair(spark, Scales.ParetoRows, 1.5, 3)
      ExpConfig("t9-rv2k", s, t, BandSynth.dims(3), BandSpec.uniform(3, 2000.0), W)
    }, "S 430/173/0 vs 401/13/0", expectSymWin = true)
    run("rv-pareto-1.5 d=1 bw=1000", () => {
      val (s, t) = rvPair(spark, Scales.ParetoRows, 1.5, 1)
      ExpConfig("t9-rv1d", s, t, BandSynth.dims(1), BandSpec(Array(1000.0)), W)
    }, "S 402/200/0 vs 402/14/0", expectSymWin = true)
    TableOutput("Table 9/14: RecPart-S vs RecPart (symmetric partitioning)",
      lines.toSeq, checks.toSeq)
  }

  // -------------------------------------------------------------------
  // Table 12 — running-time model accuracy (predicted vs measured)
  // -------------------------------------------------------------------

  def table12(spark: SparkSession): TableOutput = {
    // Calibration phase: run real distributed joins on small instances,
    // record (I, Im, Om, wall ms), regress the β coefficients — the
    // local stand-in for the paper's 100-query cluster benchmark [24].
    val w = 8
    def instance(rows: Long, d: Int, ratio: Double, seedBase: Int) = {
      val s = BandSynth.pareto(spark, rows, 1.5, d, seedBase).cache()
      val t = BandSynth.pareto(spark, rows, 1.5, d, seedBase + 7).cache()
      val eps = Calibrate.epsForRatio(s, t, BandSynth.dims(d),
        Array.fill(d)(1.0), ratio)
      (s, t, BandSynth.dims(d), eps)
    }
    def measure(s: org.apache.spark.sql.DataFrame, t: org.apache.spark.sql.DataFrame,
                dims: Seq[String], band: BandSpec, part: BandPartitioning) = {
      val pairs = BandJoinExec.pairs(s, t, dims, band, part)
      val t0 = System.nanoTime()
      pairs.count()
      val ms = (System.nanoTime() - t0) / 1e6
      val m = Metrics.compute(s, t, dims, part, pairs)
      (m, ms)
    }
    // vary the worker count too: it decorrelates Im from I, without
    // which the regression cannot tell shuffle cost from local cost;
    // instances are sized so data terms dominate Spark's fixed job
    // overhead (which β0 absorbs)
    val calib = for {
      rows <- Seq(60000L, 120000L)
      ratio <- Seq(1.0, 6.0)
      (strat, wk) <- Seq(("1b", 4), ("1b", 16), ("grid", w))
    } yield {
      val (s, t, dims, band) = instance(rows, 1, ratio, 100 + rows.toInt % 97)
      val part: BandPartitioning =
        if (strat == "1b") OneBucket.forWorkers(wk) else GridEps(band, wk)
      val (m, ms) = measure(s, t, dims, band, part)
      s.unpersist(); t.unpersist()
      (m, ms)
    }
    val x = calib.map { case (m, _) =>
      Array(1.0, m.i.toDouble, m.im.toDouble, m.om.toDouble)
    }.toArray
    val y = calib.map(_._2).toArray
    val b = CostModel.olsNonNegative(x, y)
    val model = CostModel(b(0), b(1), b(2), b(3))

    // Evaluation phase: held-out instances, predicted vs measured.
    val evals = for {
      (rows, d, ratio) <- Seq((100000L, 1, 3.0), (80000L, 3, 2.0), (40000L, 3, 0.5),
        (150000L, 1, 8.0))
      strat <- Seq("1b", "grid")
    } yield {
      val (s, t, dims, band) = instance(rows, d, ratio, 500 + d * 13)
      val part: BandPartitioning =
        if (strat == "1b") OneBucket.forWorkers(w) else GridEps(band, w)
      val (m, ms) = measure(s, t, dims, band, part)
      s.unpersist(); t.unpersist()
      val pred = model.predict(m.i.toDouble, m.im.toDouble, m.om.toDouble)
      val err = (pred - ms) / ms
      (s"rows=$rows d=$d ratio=$ratio $strat", pred, ms, err)
    }
    val lines =
      f"calibrated: M = ${b(0)}%.1f + ${b(1)}%.6f*I + ${b(2)}%.6f*Im + ${b(3)}%.6f*Om  [ms, tuples]" +:
        evals.map { case (l, p, a, e) =>
          f"$l%-28s predicted=${p}%9.0fms actual=${a}%9.0fms err=${e * 100}%7.1f%%"
        } :+ "paper: <20% error in over 70% of cases, never off by more than 1.8x"
    val absErrs = evals.map(e => math.abs(e._4)).sorted
    val median = absErrs(absErrs.size / 2)
    val checks = Seq(
      ("median relative error below 60%", median < 0.6),
      ("all coefficients non-negative directionality (I, Im terms)",
        b(1) > -1e-6 || b(2) > 0))
    TableOutput("Table 12: running-time model accuracy (local calibration)",
      lines, checks)
  }

  // -------------------------------------------------------------------
  // Table 16 — theoretical termination on PTF sky-survey data
  // -------------------------------------------------------------------

  def table16(spark: SparkSession): TableOutput = {
    val lines = scala.collection.mutable.ArrayBuffer.empty[String]
    val checks = scala.collection.mutable.ArrayBuffer.empty[(String, Boolean)]
    val configs = Seq(
      ("1 arcsec", 876.0 / 1198, "RecPart 1198/39.98/29.08 CS 1488/60/32 1B 6589/220/29 Grid 5990/200/29"),
      ("3 arcsec", 1125.0 / 1198, "RecPart 1198/40.25/36.39 CS 1508/60/41 1B 6589/221/38 Grid 5990/200/38"))
    for ((label, ratio, paper) <- configs) {
      val s = BandSynth.ptf(spark, Scales.PtfRows, seed = 21)
      val t = BandSynth.ptf(spark, Scales.PtfRows, seed = 22)
      val eps = Calibrate.epsForRatio(s, t, BandSynth.dims(2),
        Array(1.0, 1.0), ratio)
      val prep = Harness.prepare(ExpConfig(s"t16-$label", s, t,
        BandSynth.dims(2), eps, W))
      val rec = Harness.recPart(prep, symmetric = true,
        termination = Termination.Theoretical)
      val cs = Harness.csIo(prep)
      val ob = Harness.oneBucket(prep)
      val ge = Harness.gridEps(prep).get
      lines += f"--- ptf $label (eps=${eps.eps(0)}%.2e) | paper: $paper ---"
      for (r <- Seq(rec, cs, ob, ge))
        lines += f"  ${r.name}%-10s I=${r.i}%8d Im=${r.im}%8d Om=${r.om}%8d " +
          f"dupOH=${r.m.dupOverhead}%6.3f loadOH=${r.m.loadOverhead}%6.3f"
      checks += ((s"ptf $label: RecPart near both lower bounds",
        rec.m.dupOverhead <= 0.25 && rec.m.loadOverhead <= 0.25))
      checks += ((s"ptf $label: RecPart beats all on I and Im",
        Seq(cs, ob, ge).forall(r => rec.i <= r.i && rec.im <= r.im)))
      prep.pairs.unpersist()
      s.unpersist(); t.unpersist()
    }
    TableOutput("Table 16: theoretical termination, ptf_objects d=2",
      lines.toSeq, checks.toSeq)
  }
}
