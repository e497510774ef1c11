package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.{GridEps, OneBucket}
import repro.core._
import repro.data.BandSynth
import repro.exp.PaperNums.counts
import repro.exp.PaperTables._

/** The non-competition tables: grid tuning (5, 6), IEJoin (7/11),
  * cost-ratio sensitivity (8/13), symmetric partitioning (9/14),
  * running-time model accuracy (12) and the theoretical termination
  * study on PTF data (16).
  */
object TablesSpecial {

  /** The row of `strategy` or of its parameterized form `strategy(…)`. */
  private def get(rows: Seq[TableRow], strategy: String): TableRow =
    rows.find(r => r.strategy == strategy || r.strategy.startsWith(strategy + "(")).get

  // -------------------------------------------------------------------
  // Table 5 — Grid-ε vs Grid*: grid-size impact on (model) join time
  // -------------------------------------------------------------------

  def table5(spark: SparkSession): TableOutput = {
    // the paper sweeps absolute grid sizes 1..64 with ε = 2, i.e.
    // multipliers 0.5 .. 32 of the band width
    val mults = Seq(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    def jt(t: Double) = PaperNums(t, -1, -1, -1, -1)
    val rows = Harness.run(
      pareto(spark, "pareto-1.5 bw~(2,2,2)", 1.5, 3, paretoEps(spark, 1.5, 3, 1120.0 / 400)),
      Map("Grid(x0.5)" -> jt(2993), "Grid-eps" -> jt(3021), "Grid(x2.0)" -> jt(1023),
        "Grid(x4.0)" -> jt(533), "Grid(x8.0)" -> jt(389), "Grid(x16.0)" -> jt(336),
        "Grid(x32.0)" -> jt(344),
        "Grid*" -> PaperNums(335, -1, 460, 16, -1),
        "RecPart-S" -> PaperNums(286, -1, 404, 15, -1),
        "CS_IO" -> PaperNums(459, -1, 652, 19, -1),
        "1-Bucket" -> PaperNums(1236, -1, 2200, 73, -1))) { p =>
      mults.flatMap(Harness.gridEps(p, _)) ++ Harness.gridStar(p) ++
        Seq(Harness.recPart(p, symmetric = false), Harness.csIo(p), Harness.oneBucket(p))
    }
    val bestGrid = rows.take(mults.size).map(_.predT).min
    val checks = Seq(
      ("coarsening beats the default ε grid", bestGrid < get(rows, "Grid-eps").predT),
      ("Grid* finds a grid within 25% of the best swept grid",
        get(rows, "Grid*").predT <= bestGrid * 1.25),
      ("RecPart-S beats the best grid", get(rows, "RecPart-S").predT <= bestGrid * 1.05))
    TableOutput("Table 5: Grid-ε grid-size sweep vs Grid*, pareto-1.5 d=3", rows, checks)
  }

  // -------------------------------------------------------------------
  // Table 6 — Grid* vs RecPart on hard distributions
  // -------------------------------------------------------------------

  def table6(spark: SparkSession): TableOutput = {
    def run(cfg: ExpConfig, paperRec: PaperNums, paperStar: PaperNums) =
      Harness.run(cfg, Map("RecPart" -> paperRec, "Grid*" -> paperStar))(p =>
        Harness.recPart(p, symmetric = true) +: Harness.gridStar(p).toSeq)
    val r1 = run(pareto(spark, "pareto-2.0 bw~(2,2,2), paper Grid* size 8", 2.0, 3,
      paretoEps(spark, 2.0, 3, 3200.0 / 400)), counts(406, 14, 111), counts(497, 17, 130))
    val r2 = run(rvPareto(spark, "rv-pareto-1.5 bw=(1K,1K,1K), paper Grid* size 2750", 3,
      BandSpec.uniform(3, 1000.0)), counts(400, 13, 0), counts(882, 237, 0))
    val r3 = run(rvPareto(spark, "rv-pareto-1.5 bw=(2K,2K,2K), paper Grid* size 11500", 3,
      BandSpec.uniform(3, 2000.0)), counts(401, 13, 0), counts(1207, 401, 0))
    val checks = Seq(
      ("rv-pareto 1K: RecPart Im at least 3x below Grid*'s",
        get(r2, "RecPart").im.toDouble * 3 <= get(r2, "Grid*").im.toDouble),
      ("rv-pareto 2K: RecPart Im at least 3x below Grid*'s",
        get(r3, "RecPart").im.toDouble * 3 <= get(r3, "Grid*").im.toDouble),
      ("pareto-2.0: Grid* is competitive on I (within 2x of RecPart)",
        get(r1, "Grid*").i <= get(r1, "RecPart").i * 2))
    TableOutput("Table 6: Grid* vs RecPart (reverse-Pareto breaks grids)", r1 ++ r2 ++ r3, checks)
  }

  // -------------------------------------------------------------------
  // Table 7 / 11 — distributed IEJoin quantile partitioning
  // -------------------------------------------------------------------

  def table7(spark: SparkSession): TableOutput = {
    val eps = paretoEps(spark, 1.5, 3, 1120.0 / 400)
    // The paper reports IEJoin at its best sizePerBlock (12524, 7422,
    // 6263 and 8295 in these rows); those numbers sit on our nearest
    // swept size.
    val runs = Seq(
      ("z=1.5 bw=0", 1.5, BandSpec.uniform(3, 0.0), counts(401, 14, 0),
        "IEJoin(12500)" -> counts(726, 25, 0)),
      ("z=1.5 bw~(2,2,2)", 1.5, eps, counts(404, 15, 29), "IEJoin(6000)" -> counts(1070, 45, 21)),
      ("z=1.0 bw~(2,2,2)", 1.0, eps, counts(401, 13, 17), "IEJoin(6000)" -> counts(1080, 37, 26)),
      ("z=0.5 bw~(2,2,2)", 0.5, eps, counts(401, 13, 0.3), "IEJoin(6000)" -> counts(796, 17, 2))
    ).map { case (label, z, band, paperRec, paperIe) =>
      val rows = Harness.run(pareto(spark, label, z, 3, band),
          Map("RecPart-S" -> paperRec, paperIe)) { p =>
        Harness.recPart(p, symmetric = false) +: Seq(12500, 6000, 3000).map(Harness.ieJoin(p, _))
      }
      val (rec, bestIe) = (rows.head, rows.tail.minBy(_.predT))
      (rows, Seq(
        (s"$label: best IEJoin duplicates more input than RecPart-S", bestIe.i > rec.i),
        (s"$label: RecPart-S predicted time beats best IEJoin",
          rec.predT <= bestIe.predT * 1.05)))
    }
    TableOutput("Table 7/11: RecPart-S vs distributed IEJoin (pareto-z, d=3, w=30)",
      runs.flatMap(_._1), runs.flatMap(_._2))
  }

  // -------------------------------------------------------------------
  // Table 8 / 13 — impact of the local-join cost ratio β2/β1
  // -------------------------------------------------------------------

  def table8(spark: SparkSession): TableOutput = {
    val betas = Seq("1e-4", "1e-2", "1", "1e2", "1e4")
    // Table 2c's paper numbers for this instance; the RecPart entry there
    // is RecPart-S at the default model, so it is left out.
    val rows = Harness.run(
        ebirdCloud(spark, "ebird-cloud bw~(2,2,2)", ebirdCloudEps(spark, 2134.0 / 890)),
        Tables.ebirdCloud222Paper - "RecPart") { p =>
      betas.map(b => Harness.recPart(p, symmetric = true,
        model = CostModel.paperStyle(1.0, b.toDouble)).copy(name = s"RecPart(beta2=$b)")) ++
        // competitors are β-independent (they ignore the model)
        Seq(Harness.csIo(p), Harness.oneBucket(p)) ++ Harness.gridEps(p)
    }
    val (recs, others) = rows.splitAt(betas.size)
    def lm(r: TableRow): Double = 4.0 * r.im + r.om
    val checks = Seq(
      ("I is non-decreasing in beta2", recs.last.i >= recs.head.i),
      ("Lm is non-increasing in beta2", lm(recs.last) <= lm(recs.head) + 1e-9),
      ("RecPart's Lm beats every competitor at beta2=1", lm(recs(2)) <= others.map(lm).min))
    TableOutput("Table 8/13: cost-ratio sensitivity, ebird join cloud, w=30 " +
      "(paper RecPart: I 890.34 -> 890.8, Lm = 4Im+Om 289 -> 189 as beta2 grows)", rows, checks)
  }

  // -------------------------------------------------------------------
  // Table 9 / 14 — RecPart-S vs RecPart (symmetric partitioning)
  // -------------------------------------------------------------------

  def table9(spark: SparkSession): TableOutput = {
    def run(cfg: ExpConfig, paperS: PaperNums, paperSym: PaperNums, expectSymWin: Boolean) = {
      // Whether RecPart-S strands half the input depends on the draw, so
      // these rows run sample seeds 1-5, fixed here, and check the median.
      val rows = Harness.run(cfg, Map("RecPart-S" -> paperS, "RecPart" -> paperSym)) { p =>
        val preps = if (expectSymWin) (1 to 5).iterator.map(p.withSampleSeed(_)) else Iterator(p)
        preps.flatMap(q => Seq(Harness.recPart(q, symmetric = false),
          Harness.recPart(q, symmetric = true))).toSeq
      }
      val (asym, sym) = rows.partition(_.strategy == "RecPart-S")
      def medianIm(rs: Seq[TableRow]): Long = rs.map(_.im).sorted.apply(rs.length / 2)
      (rows,
        if (expectSymWin)
          (s"${cfg.label}: symmetric at least halves the median Im of sample seeds 1-5",
            medianIm(sym) * 2 <= medianIm(asym))
        else
          (s"${cfg.label}: symmetric within 2x on predicted time",
            sym.head.predT <= asym.head.predT * 2.0))
    }
    val runs = Seq(
      run(pareto(spark, "pareto-1.0 bw~(2,2,2)", 1.0, 3, paretoEps(spark, 1.0, 3, 420.0 / 400)),
        counts(401, 13, 17), counts(401, 12, 21), expectSymWin = false),
      run(ebirdCloud(spark, "ebird-cloud bw~(2,2,2)", ebirdCloudEps(spark, 2134.0 / 890)),
        counts(899, 32, 66), counts(891, 31, 67), expectSymWin = false),
      run(rvPareto(spark, "rv-pareto-1.5 d=3 bw=(1K)^3", 3, BandSpec.uniform(3, 1000.0)),
        counts(452, 143, 0), counts(400, 13, 0), expectSymWin = true),
      run(rvPareto(spark, "rv-pareto-1.5 d=3 bw=(2K)^3", 3, BandSpec.uniform(3, 2000.0)),
        counts(430, 173, 0), counts(401, 13, 0), expectSymWin = true),
      run(rvPareto(spark, "rv-pareto-1.5 d=1 bw=1000", 1, BandSpec(Array(1000.0))),
        counts(402, 200, 0), counts(402, 14, 0), expectSymWin = true))
    TableOutput("Table 9/14: RecPart-S vs RecPart (symmetric partitioning)",
      runs.flatMap(_._1), runs.map(_._2))
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
                dims: Seq[String], band: BandSpec, strategy: String, wk: Int) = {
      val part: BandPartitioning =
        if (strategy == "1-Bucket") OneBucket.forWorkers(wk) else GridEps(band, wk)
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
      (strategy, wk) <- Seq(("1-Bucket", 4), ("1-Bucket", 16), ("Grid-eps", w))
    } yield {
      val (s, t, dims, band) = instance(rows, 1, ratio, 100 + rows.toInt % 97)
      val (m, ms) = measure(s, t, dims, band, strategy, wk)
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
      strategy <- Seq("1-Bucket", "Grid-eps")
    } yield {
      val (s, t, dims, band) = instance(rows, d, ratio, 500 + d * 13)
      val (m, ms) = measure(s, t, dims, band, strategy, w)
      s.unpersist(); t.unpersist()
      val pred = model.predict(m.i.toDouble, m.im.toDouble, m.om.toDouble)
      (TableRow.of(s"rows=$rows d=$d ratio=$ratio", strategy, band, w, None, m, None,
        Timing(joinMs = Some(ms), fitMs = Some(pred))), math.abs((pred - ms) / ms))
    }
    val absErrs = evals.map(_._2).sorted
    val median = absErrs(absErrs.size / 2)
    val checks = Seq(
      ("median relative error below 60%", median < 0.6),
      ("all coefficients non-negative directionality (I, Im terms)",
        b(1) > -1e-6 || b(2) > 0))
    TableOutput("Table 12: running-time model accuracy (local calibration: " +
      f"M = ${b(0)}%.1f + ${b(1)}%.6f*I + ${b(2)}%.6f*Im + ${b(3)}%.6f*Om ms; " +
      "paper: <20% error in over 70% of cases, never off by more than 1.8x)",
      evals.map(_._1), checks)
  }

  // -------------------------------------------------------------------
  // Table 16 — theoretical termination on PTF sky-survey data
  // -------------------------------------------------------------------

  def table16(spark: SparkSession): TableOutput = {
    val runs = Seq(
      ("1 arcsec", 876.0 / 1198, Map(
        "RecPart" -> counts(1198, 39.98, 29.08), "CS_IO" -> counts(1488, 60, 32),
        "1-Bucket" -> counts(6589, 220, 29), "Grid-eps" -> counts(5990, 200, 29))),
      ("3 arcsec", 1125.0 / 1198, Map(
        "RecPart" -> counts(1198, 40.25, 36.39), "CS_IO" -> counts(1508, 60, 41),
        "1-Bucket" -> counts(6589, 221, 38), "Grid-eps" -> counts(5990, 200, 38)))
    ).map { case (label, ratio, paper) =>
      val rows = Harness.run(ptf(spark, s"ptf $label", ptfEps(spark, ratio)), paper) { p =>
        Seq(Harness.recPart(p, symmetric = true, termination = Termination.Theoretical),
          Harness.csIo(p), Harness.oneBucket(p)) ++ Harness.gridEps(p)
      }
      val rec = rows.head
      (rows, Seq(
        (s"ptf $label: RecPart near both lower bounds",
          rec.dupOH <= 0.25 && rec.loadOH <= 0.25),
        (s"ptf $label: RecPart beats all on I and Im",
          rows.tail.forall(r => rec.i <= r.i && rec.im <= r.im))))
    }
    TableOutput("Table 16: theoretical termination, ptf_objects d=2",
      runs.flatMap(_._1), runs.flatMap(_._2))
  }
}
