package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CostModelTest extends AnyFunSuite {

  test("CostModel.default load matches the paper's β2/β3 = 4 profile") {
    assert(CostModel.default.load(10, 8) == 48.0)
  }

  test("CostModel lower bound is Lemma 1's L0") {
    // L0 = (4*(100+100) + 1*50)/10
    assert(CostModel.default.lowerBound(100, 100, 50, 10) == 85.0)
  }

  test("CostModel.default is I + 4*Im + Om") {
    assert(CostModel.default.predict(100, 10, 20) == 160.0)
  }

  test("paperStyle builds β1·I + βL·(4·Im + Om)") {
    val m = CostModel.paperStyle(1.0, 10.0)
    assert(m.predict(100, 10, 20) == 100.0 + 10 * (40 + 20))
  }

  test("OLS recovers exact linear coefficients") {
    val rnd = new scala.util.Random(3)
    val truth = Array(2.0, -1.5, 0.25)
    val x = Array.fill(50)(Array(1.0, rnd.nextDouble() * 10, rnd.nextDouble() * 5))
    val y = x.map(r => r.zip(truth).map { case (a, b) => a * b }.sum)
    val b = CostModel.ols(x, y)
    truth.indices.foreach(i => assert(math.abs(b(i) - truth(i)) < 1e-8))
  }

  test("OLS tolerates noise and stays close") {
    val rnd = new scala.util.Random(9)
    val truth = Array(1.0, 3.0)
    val x = Array.fill(400)(Array(1.0, rnd.nextDouble() * 100))
    val y = x.map(r => r(0) * truth(0) + r(1) * truth(1) + rnd.nextGaussian() * 0.1)
    val b = CostModel.ols(x, y)
    assert(math.abs(b(1) - 3.0) < 0.01)
  }

  test("OLS rejects a singular design") {
    val x = Array(Array(1.0, 2.0), Array(2.0, 4.0), Array(3.0, 6.0))
    assertThrows[IllegalArgumentException](CostModel.ols(x, Array(1.0, 2.0, 3.0)))
  }
}
