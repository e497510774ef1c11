package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.PaperTables.{ebirdCloud, ebirdCloudEps, pareto, paretoEps}

/** Competition-style tables of the evaluation section: Tables 2a/2b/2c
  * (band-width impact), 3 (skew), 4a-4d (scalability) and 15
  * (dimensionality sweep). Each reproduces the paper's rows at 1/2000
  * scale with band widths calibrated to the paper's output/input ratio
  * (DESIGN.md §3), next to the paper's numbers. Each holds only its
  * data: the rows' instances and paper numbers, the RecPart variant and
  * the near-optimality tolerance.
  */
object Tables {

  /** Table 8 reruns this row's instance. */
  private[exp] val ebirdCloud222Paper = Map(
    "RecPart" -> PaperNums(423, 3, 899, 32, 66),
    "CS_IO" -> PaperNums(2615, 1553, 1830, 107, 74),
    "1-Bucket" -> PaperNums(1573, -1, 4832, 161, 67),
    "Grid-eps" -> PaperNums(1377, -1, 10783, 361, 74))

  // -------------------------------------------------------------------
  // Table 2a — pareto-1.5, d = 1, varying band width
  // -------------------------------------------------------------------

  def table2a(spark: SparkSession): TableOutput = {
    // pick the lattice pitch so that the equi-join reproduces the
    // paper's output ratio 2430/400; widths are then 1..3 lattice steps,
    // mirroring the paper's 1e-5 steps
    val q = Calibrate.quantizeForEquiRatio(spark, 1.5, Scales.ParetoRows, 2430.0 / 400)
    def row(label: String, mult: Int) =
      pareto(spark, label, 1.5, 1, BandSpec(Array(mult * q)), quantize = q)
    Competition.table("Table 2a: pareto-1.5, d=1, varying band width (RecPart-S)",
        symmetric = false)(Seq(
      row(f"bw=0 (q=$q%.2e)", 0) -> Map(
        "RecPart" -> PaperNums(351, 3, 400, 14, 83),
        "CS_IO" -> PaperNums(512, 29, 496, 13, 131),
        "1-Bucket" -> PaperNums(762, -1, 2200, 73, 81)),
      row("bw=1q (paper 1e-5)", 1) -> Map(
        "RecPart" -> PaperNums(539, 7, 400, 12, 158),
        "CS_IO" -> PaperNums(685, -1, 475, 8, 266),
        "1-Bucket" -> PaperNums(1004, -1, 2200, 73, 153),
        "Grid-eps" -> PaperNums(540, -1, 800, 27, 153)),
      row("bw=2q (paper 2e-5)", 2) -> Map(
        "RecPart" -> PaperNums(813, 3, 401, 13, 305),
        "CS_IO" -> PaperNums(992, -1, 488, 10, 388),
        "1-Bucket" -> PaperNums(1316, -1, 2200, 73, 304),
        "Grid-eps" -> PaperNums(834, -1, 800, 27, 304)),
      row("bw=3q (paper 3e-5)", 3) -> Map(
        "RecPart" -> PaperNums(878, 3, 401, 12, 384),
        "CS_IO" -> PaperNums(1170, 30, 479, 10, 503),
        "1-Bucket" -> PaperNums(1520, -1, 2200, 73, 376),
        "Grid-eps" -> PaperNums(956, -1, 800, 27, 376))))
  }

  // -------------------------------------------------------------------
  // Table 2b — pareto-1.5, d = 3, varying band width
  // -------------------------------------------------------------------

  def table2b(spark: SparkSession): TableOutput = {
    val eps2 = paretoEps(spark, 1.5, 3, 1120.0 / 400)
    val eps4 = paretoEps(spark, 1.5, 3, 8740.0 / 400)
    def row(label: String, band: BandSpec) = pareto(spark, label, 1.5, 3, band)
    Competition.table("Table 2b: pareto-1.5, d=3, varying band width (RecPart-S)",
        symmetric = false)(Seq(
      row("bw=(0,0,0)", BandSpec.uniform(3, 0.0)) -> Map(
        "RecPart" -> PaperNums(230, 1, 401, 14, 0),
        "CS_IO" -> PaperNums(366, 46, 497, 17, 0),
        "1-Bucket" -> PaperNums(792, -1, 2200, 73, 0)),
      row(f"bw~(2,2,2) [eps=${eps2.eps(0)}%.3f]", eps2) -> Map(
        "RecPart" -> PaperNums(344, 2, 404, 15, 29),
        "CS_IO" -> PaperNums(1339, 694, 652, 19, 69),
        "1-Bucket" -> PaperNums(1149, -1, 2200, 73, 37),
        "Grid-eps" -> PaperNums(1412, -1, 5541, 185, 37)),
      row(f"bw~(4,4,4) [eps=${eps4.eps(0)}%.3f]", eps4) -> Map(
        "RecPart" -> PaperNums(860, 2, 413, 14, 290),
        "CS_IO" -> PaperNums(2557, 1345, 838, 31, 321),
        "1-Bucket" -> PaperNums(1772, -1, 2200, 73, 291),
        "Grid-eps" -> PaperNums(1816, -1, 5485, 183, 291))))
  }

  // -------------------------------------------------------------------
  // Table 2c — ebird join cloud, d = 3, varying band width
  // -------------------------------------------------------------------

  def table2c(spark: SparkSession): TableOutput = {
    val eps1 = ebirdCloudEps(spark, 320.0 / 890)
    val eps2 = ebirdCloudEps(spark, 2134.0 / 890)
    def row(label: String, band: BandSpec) = ebirdCloud(spark, label, band)
    Competition.table("Table 2c: ebird join cloud, d=3, varying band width (RecPart-S)",
        symmetric = false)(Seq(
      row("bw=(0,0,0)", BandSpec.uniform(3, 0.0)) -> Map(
        "RecPart" -> PaperNums(248, 3, 890, 30, 0),
        "CS_IO" -> PaperNums(346, 38, 951, 32, 0),
        "1-Bucket" -> PaperNums(1418, -1, 4832, 161, 0)),
      row(f"bw~(1,1,1) [eps1=${eps1.eps(1)}%.3f]", eps1) -> Map(
        "RecPart" -> PaperNums(332, 3, 895, 35, 5),
        "CS_IO" -> PaperNums(1945, 968, 1490, 95, 9),
        "1-Bucket" -> PaperNums(1532, -1, 4832, 161, 11),
        "Grid-eps" -> PaperNums(1419, -1, 10891, 361, 11)),
      row(f"bw~(2,2,2) [eps1=${eps2.eps(1)}%.3f]", eps2) -> ebirdCloud222Paper))
  }

  // -------------------------------------------------------------------
  // Table 3 — skew resistance: pareto-z, d = 3, bw ~ (2,2,2)
  // -------------------------------------------------------------------

  def table3(spark: SparkSession): TableOutput = {
    // calibrate ε once on z=1.5 (paper ratio 1120/400) and reuse across
    // skews, as the paper fixes (2,2,2) across its z values
    val eps = paretoEps(spark, 1.5, 3, 1120.0 / 400)
    val papers = Map(
      0.5 -> Map(
        "RecPart" -> PaperNums(230, 3, 401, 13, 0.3),
        "CS_IO" -> PaperNums(609, 263, 577, 20, 1),
        "1-Bucket" -> PaperNums(1137, -1, 2200, 73, 0.4),
        "Grid-eps" -> PaperNums(1146, -1, 5582, 186, 0.4)),
      1.0 -> Map(
        "RecPart" -> PaperNums(290, 3, 401, 13, 17),
        "CS_IO" -> PaperNums(1064, 525, 616, 20, 31),
        "1-Bucket" -> PaperNums(1235, -1, 2200, 73, 14),
        "Grid-eps" -> PaperNums(1335, -1, 5554, 185, 14)),
      1.5 -> Map(
        "RecPart" -> PaperNums(344, 2, 404, 15, 29),
        "CS_IO" -> PaperNums(1339, 694, 652, 19, 69),
        "1-Bucket" -> PaperNums(1149, -1, 2200, 73, 37),
        "Grid-eps" -> PaperNums(1412, -1, 5541, 185, 37)),
      2.0 -> Map(
        "RecPart" -> PaperNums(485, 2, 406, 14, 111),
        "CS_IO" -> PaperNums(1811, 1000, 747, 19, 168),
        "1-Bucket" -> PaperNums(1369, -1, 2200, 73, 107),
        "Grid-eps" -> PaperNums(2417, -1, 5522, 184, 107)))
    Competition.table("Table 3: skew resistance, pareto-z, d=3 (RecPart-S)",
        symmetric = false)(
      Seq(0.5, 1.0, 1.5, 2.0).map(z => pareto(spark, s"pareto-$z", z, 3, eps) -> papers(z)))
  }

  // -------------------------------------------------------------------
  // Table 4a/4b — scaling input size and workers together
  // -------------------------------------------------------------------

  def table4a(spark: SparkSession): TableOutput = {
    val eps = paretoEps(spark, 1.5, 3, 1120.0 / 400)
    val papers = Seq(
      Map(
        "RecPart" -> PaperNums(306, 1, 202, 13, 20),
        "CS_IO" -> PaperNums(1227, 767, 290, 19, 36),
        "1-Bucket" -> PaperNums(779, -1, 800, 53, 19),
        "Grid-eps" -> PaperNums(1381, -1, 2772, 185, 19)),
      Map(
        "RecPart" -> PaperNums(344, 2, 404, 15, 29),
        "CS_IO" -> PaperNums(1374, 729, 652, 19, 69),
        "1-Bucket" -> PaperNums(1149, -1, 2200, 73, 37),
        "Grid-eps" -> PaperNums(1412, -1, 5541, 185, 37)),
      Map(
        "RecPart" -> PaperNums(438, 4, 809, 21, 45),
        "CS_IO" -> PaperNums(1721, 801, 1690, 42, 74),
        "1-Bucket" -> PaperNums(1731, -1, 6400, 107, 74),
        "Grid-eps" -> PaperNums(-1, -1, 11089, 185, 74))) // paper: FAILED
    val shapes = Seq((0.5, 15), (1.0, 30), (2.0, 60))
    Competition.table("Table 4a: scalability (input and workers), pareto-1.5 d=3 (RecPart-S)",
        symmetric = false)(shapes.zip(papers).map { case ((mult, w), p) =>
      pareto(spark, s"pareto-1.5 x$mult w=$w", 1.5, 3, eps, w,
        rows = (Scales.ParetoRows * mult).toLong) -> p
    })
  }

  def table4b(spark: SparkSession): TableOutput = {
    val eps = ebirdCloudEps(spark, 2000.0 / 890)
    val papers = Seq(
      Map(
        "RecPart" -> PaperNums(207, 3, 223, 15, 11),
        "CS_IO" -> PaperNums(1213, 942, 307, 22, 11),
        "1-Bucket" -> PaperNums(547, -1, 856, 57, 9),
        "Grid-eps" -> PaperNums(812, -1, 2688, 179, 9)),
      Map(
        "RecPart" -> PaperNums(193, 3, 448, 16, 14),
        "CS_IO" -> PaperNums(1778, 1447, 748, 26, 27),
        "1-Bucket" -> PaperNums(688, -1, 2420, 81, 18),
        "Grid-eps" -> PaperNums(771, -1, 5403, 180, 18)),
      Map(
        "RecPart" -> PaperNums(215, 2, 899, 13, 44),
        "CS_IO" -> PaperNums(1919, 1479, 2040, 38, 35),
        "1-Bucket" -> PaperNums(1117, -1, 6870, 114, 36),
        "Grid-eps" -> PaperNums(793, -1, 10805, 180, 36)))
    val shapes = Seq((0.25, 15), (0.5, 30), (1.0, 60))
    Competition.table("Table 4b: scalability (input and workers), ebird join cloud (RecPart-S)",
        symmetric = false)(shapes.zip(papers).map { case ((mult, w), p) =>
      ebirdCloud(spark, s"ebird-cloud x$mult w=$w", eps, w, scale = mult) -> p
    })
  }

  // -------------------------------------------------------------------
  // Table 4c/4d — 8-dimensional band-joins
  // -------------------------------------------------------------------

  private def eps8(spark: SparkSession): BandSpec = paretoEps(spark, 1.5, 8, 219.0 / 400)

  def table4c(spark: SparkSession): TableOutput = {
    val eps = eps8(spark)
    val papers = Seq(
      Map(
        "RecPart" -> PaperNums(61, 5, 104, 3, 2),
        "CS_IO" -> PaperNums(528, 449, 142, 5, 1),
        "1-Bucket" -> PaperNums(292, -1, 550, 18, 0.3),
        "Grid-eps" -> PaperNums(173581, -1, 297421, 9914, 0.3)),
      Map(
        "RecPart" -> PaperNums(120, 5, 210, 7, 2),
        "CS_IO" -> PaperNums(612, 448, 285, 10, 5),
        "1-Bucket" -> PaperNums(587, -1, 1100, 37, 2),
        "Grid-eps" -> PaperNums(347944, -1, 594834, 19828, 2)),
      Map(
        "RecPart" -> PaperNums(240, 8, 420, 14, 7),
        "CS_IO" -> PaperNums(760, 418, 574, 7, 67),
        "1-Bucket" -> PaperNums(1180, -1, 2200, 73, 7),
        "Grid-eps" -> PaperNums(694574, -1, 1189996, 39667, 7)),
      Map(
        "RecPart" -> PaperNums(510, 17, 847, 26, 31),
        "CS_IO" -> PaperNums(1166, 423, 1180, 53, 4),
        "1-Bucket" -> PaperNums(2390, -1, 4400, 147, 29),
        "Grid-eps" -> PaperNums(1390000, -1, 2379329, 79311, 29)))
    val mults = Seq(0.25, 0.5, 1.0, 2.0)
    Competition.table("Table 4c: varying input size, pareto-1.5 d=8, w=30 (RecPart)",
        symmetric = true, tol = 1.0)(mults.zip(papers).map { case (mult, p) =>
      pareto(spark, s"pareto-1.5 d=8 x$mult", 1.5, 8, eps,
        rows = (Scales.ParetoRows * mult).toLong) -> p
    })
  }

  def table4d(spark: SparkSession): TableOutput = {
    val eps = eps8(spark)
    val papers = Seq(
      Map(
        "RecPart" -> PaperNums(3655, -1, 400, 400, 219),
        "CS_IO" -> PaperNums(3655, -1, 400, 400, 219),
        "1-Bucket" -> PaperNums(3655, -1, 400, 400, 219),
        "Grid-eps" -> PaperNums(8527502, -1, 1189996, 1189996, 219)),
      Map(
        "RecPart" -> PaperNums(358, 5, 420, 28, 10),
        "CS_IO" -> PaperNums(-1, -1, 565, 40, 29),
        "1-Bucket" -> PaperNums(1295, -1, 1600, 107, 15),
        "Grid-eps" -> PaperNums(1040000, -1, 1189996, 79333, 15)),
      Map(
        "RecPart" -> PaperNums(240, 8, 420, 14, 7),
        "CS_IO" -> PaperNums(760, 418, 574, 7, 67),
        "1-Bucket" -> PaperNums(1180, -1, 2200, 73, 7),
        "Grid-eps" -> PaperNums(695000, -1, 1189996, 39667, 7)),
      Map(
        "RecPart" -> PaperNums(182, 10, 425, 6, 5),
        "CS_IO" -> PaperNums(3703, 3431, 619, 13, 2),
        "1-Bucket" -> PaperNums(1287, -1, 3200, 53, 4),
        "Grid-eps" -> PaperNums(525000, -1, 1189996, 19833, 4)))
    // w=1 has zero variance: every method degenerates to one worker and
    // the near-optimality checks hold trivially.
    val ws = Seq(1, 15, 30, 60)
    Competition.table("Table 4d: varying workers, pareto-1.5 d=8, input x1.0 (RecPart)",
        symmetric = true, tol = 1.0)(ws.zip(papers).map { case (w, p) =>
      pareto(spark, s"pareto-1.5 d=8 w=$w", 1.5, 8, eps, w) -> p
    })
  }

  // -------------------------------------------------------------------
  // Table 15 — dimensionality sweep d in {1, 2, 4, 8}
  // -------------------------------------------------------------------

  def table15(spark: SparkSession): TableOutput = {
    // the paper fixes bw=5 per dimension and output collapses with d
    // (2.8e5x input ... 0); at our scale we calibrate a decreasing
    // output-ratio profile (materializing 2.8e5x input is impossible on
    // one machine) — see EXPERIMENTS.md
    val targets = Map(1 -> 30.0, 2 -> 5.0, 4 -> 1.0, 8 -> 0.05)
    val papers = Map(
      1 -> Map(
        "RecPart" -> PaperNums(6.77e6, -1, 531, 18, 3470000),
        "CS_IO" -> PaperNums(9.4e6, 113, 544, 12, 4820000),
        "1-Bucket" -> PaperNums(7.27e6, -1, 2200, 73, 3730000),
        "Grid-eps" -> PaperNums(7.27e6, -1, 785, 27, 3730000)),
      2 -> Map(
        "RecPart" -> PaperNums(20291, 1, 409, 12, 10300),
        "CS_IO" -> PaperNums(26488, 113, 548, 13, 13400),
        "1-Bucket" -> PaperNums(21446, -1, 2200, 73, 10400),
        "Grid-eps" -> PaperNums(21340, -1, 1956, 67, 10400)),
      4 -> Map(
        "RecPart" -> PaperNums(266, 3, 406, 11, 34),
        "CS_IO" -> PaperNums(519, 120, 573, 27, 19),
        "1-Bucket" -> PaperNums(1222, -1, 2200, 73, 29),
        "Grid-eps" -> PaperNums(8751, -1, 16004, 547, 29)),
      8 -> Map(
        "RecPart" -> PaperNums(217, 3, 404, 14, 0),
        "CS_IO" -> PaperNums(458, 151, 560, 20, 0),
        "1-Bucket" -> PaperNums(1166, -1, 2200, 73, 0),
        "Grid-eps" -> PaperNums(694560, -1, 1280326, 43747, 0)))
    Competition.table("Table 15: dimensionality sweep, pareto-1.5 (RecPart)",
        symmetric = true)(Seq(1, 2, 4, 8).map { d =>
      pareto(spark, s"pareto-1.5 d=$d", 1.5, d, paretoEps(spark, 1.5, d, targets(d))) -> papers(d)
    })
  }
}
