package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class CompetitionTest extends AnyFunSuite {

  private def metrics(i: Long, im: Long, om: Long, sc: Long = 100,
                      tc: Long = 100, out: Long = 50, w: Int = 4): PartMetrics = {
    val lm = 4.0 * im + om
    val l0 = (4.0 * (sc + tc) + out) / w
    PartMetrics(sc, tc, out, i, im, om, lm, l0,
      (i - (sc + tc).toDouble) / (sc + tc), (lm - l0) / l0,
      Array.fill(w)(0L), Array.fill(w)(0L))
  }

  private def res(name: String, i: Long, im: Long, om: Long, pred: Double) =
    StrategyResult(name, 1.0, metrics(i, im, om), pred)

  test("PaperNums.str renders reported and missing values") {
    assert(PaperNums(100, 2, 400, 14, 83).str.contains("I=400"))
    assert(PaperNums.NA.str.contains("I=-"))
  }

  test("recPartNearOptimal enforces both overheads") {
    val good = CompetitionOutcome("x", Seq(res("RecPart", 210, 55, 13, 1.0)), 100, 100, 50)
    assert(Competition.recPartNearOptimal(good, tol = 0.40))
    val dupHeavy = CompetitionOutcome("x", Seq(res("RecPart", 400, 55, 13, 1.0)), 100, 100, 50)
    assert(!Competition.recPartNearOptimal(dupHeavy, tol = 0.40))
  }

  test("recPartWins compares against every competitor") {
    val o = CompetitionOutcome("x", Seq(
      res("RecPart", 200, 50, 10, 100.0),
      res("CS_IO", 250, 60, 10, 130.0),
      res("1-Bucket", 1100, 150, 10, 500.0)), 100, 100, 50)
    assert(Competition.recPartWins(o))
    val lose = CompetitionOutcome("x", Seq(
      res("RecPart", 200, 50, 10, 100.0),
      res("CS_IO", 250, 60, 10, 80.0)), 100, 100, 50)
    assert(!Competition.recPartWins(lose))
  }

  test("lines include the paper reference for known strategies") {
    val o = CompetitionOutcome("row", Seq(res("RecPart-S", 200, 50, 10, 100.0)), 100, 100, 50)
    val ls = Competition.lines(o, Map("RecPart" -> PaperNums(344, 2, 404, 15, 29)))
    assert(ls.head.contains("row"))
    assert(ls(1).contains("I=404"))
  }

  test("TableOutput.failed lists only failing checks") {
    val t = TableOutput("t", Seq(), Seq(("a", true), ("b", false)))
    assert(t.failed == Seq("b"))
  }
}
