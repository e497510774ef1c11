package repro.exp

import org.scalatest.funsuite.AnyFunSuite

class CompetitionTest extends AnyFunSuite {

  /** A hand-built row of group "g": |S| = |T| = 100, |out| = 50. */
  private def row(strategy: String, i: Long, im: Long, om: Long, predT: Double,
                  dupOH: Double = 0.1, loadOH: Double = 0.1, group: String = "g",
                  paper: Option[PaperNums] = None, timing: Timing = Timing()) =
    TableRow(group, strategy, Seq(0.25, 2.0), 30, Some(42L), 100, 100, 50,
      i, im, om, dupOH, loadOH, predT, None, paper, timing)

  test("recPartNearOptimal enforces both overheads") {
    val good = Seq(row("RecPart", 210, 55, 13, 1.0, dupOH = 0.05, loadOH = 0.3))
    assert(Competition.recPartNearOptimal(good, tol = 0.40))
    val dupHeavy = Seq(row("RecPart", 400, 55, 13, 1.0, dupOH = 1.0, loadOH = 0.3))
    assert(!Competition.recPartNearOptimal(dupHeavy, tol = 0.40))
  }

  test("recPartWins compares against every competitor") {
    val win = Seq(
      row("RecPart", 200, 50, 10, 100.0),
      row("CS_IO", 250, 60, 10, 130.0),
      row("1-Bucket", 1100, 150, 10, 500.0))
    assert(Competition.recPartWins(win))
    val lose = Seq(row("RecPart", 200, 50, 10, 100.0), row("CS_IO", 250, 60, 10, 80.0))
    assert(!Competition.recPartWins(lose))
  }

  test("TableOutput.failed lists only failing checks") {
    val t = TableOutput("t", Seq(), Seq(("a", true), ("b", false)))
    assert(t.failed == Seq("b"))
  }

  test("render heads each group with its label, ε, w, sample seed and counts") {
    val text = TableOutput("T", Seq(
      row("RecPart-S", 200, 50, 10, 100.0),
      row("CS_IO", 250, 60, 10, 130.0),
      row("1-Bucket", 1100, 150, 10, 500.0, group = "h")), Seq()).render
    val headers = text.filter(_.startsWith("---"))
    assert(headers == Seq(
      "--- g | eps=(0.250,2.00) w=30 seed=42 |S|=100 |T|=100 |out|=50 ---",
      "--- h | eps=(0.250,2.00) w=30 seed=42 |S|=100 |T|=100 |out|=50 ---"))
    assert(text.indexOf(headers(1)) == text.indexWhere(_.contains("1-Bucket")) - 1)
  }

  test("render prints every column of a row and every paper field") {
    val r = row("Grid(x2.0)", 123456, 7890, 321, 45678.0, dupOH = 0.234, loadOH = 0.567,
      paper = Some(PaperNums(351, 3, 400, 14, 0.3)),
      timing = Timing(Some(12.4), Some(987.0), Some(654.0))).copy(rel = Some(1.5))
    val line = TableOutput("T", Seq(r), Seq(("c", true))).render
      .find(_.contains("Grid(x2.0)")).get
    val cols = line.split(" \\| ")(0).trim.split("\\s+").toSeq
    assert(cols == Seq("Grid(x2.0)", "12", "987", "654", "45678", "1.50",
      "123456", "1.234", "7890", "321", "0.234", "0.567"))
    assert(line.endsWith("| rt=351 opt=3 I=400 Im=14 Om=0.3"))
  }

  test("render shows - for a missing paper cell, timing, rel and paper field") {
    val r = row("1-Bucket", 1100, 150, 10, 500.0,
      paper = Some(PaperNums(762, -1, 2200, 73, 81)))
    val text = TableOutput("T", Seq(r, row("CS_IO", 250, 60, 10, 130.0)), Seq()).render
    val ob = text.find(_.contains("1-Bucket")).get
    assert(ob.endsWith("| rt=762 opt=- I=2200 Im=73 Om=81"))
    assert(ob.split(" \\| ")(0).trim.split("\\s+").slice(1, 6).toSeq ==
      Seq("-", "-", "-", "500", "-"))
    assert(text.find(_.contains("CS_IO")).get.endsWith("| -"))
  }

  test("rel is taken against the first RecPart row of the same group and sample seed") {
    val rows = TableRow.relToRecPart(Seq(
      row("CS_IO", 250, 60, 10, 130.0),
      row("RecPart-S", 200, 50, 10, 100.0),
      row("RecPart", 200, 50, 10, 80.0),
      row("RecPart-S", 200, 50, 10, 50.0).copy(sampleSeed = Some(1L)),
      row("RecPart", 200, 50, 10, 25.0).copy(sampleSeed = Some(1L)),
      row("1-Bucket", 1100, 150, 10, 500.0, group = "h")))
    assert(rows.map(_.rel) == Seq(Some(1.3), Some(1.0), Some(0.8), Some(1.0), Some(0.5), None))
  }

  test("paperCell looks a strategy up by name, then by its family") {
    val paper = Map("RecPart" -> PaperNums.counts(1, 2, 3), "Grid*" -> PaperNums.counts(4, 5, 6),
      "Grid(x2.0)" -> PaperNums.counts(7, 8, 9))
    assert(TableRow.paperCell(paper, "RecPart-S") == paper.get("RecPart"))
    assert(TableRow.paperCell(paper, "Grid*(x11)") == paper.get("Grid*"))
    assert(TableRow.paperCell(paper, "Grid(x2.0)") == paper.get("Grid(x2.0)"))
    assert(TableRow.paperCell(paper, "Grid(x4.0)").isEmpty)
    assert(TableRow.paperCell(paper, "CS_IO").isEmpty)
  }
}
