package repro.core

/** Running-time model of Li et al. [24]:
  * `M(I, Im, Om) = β0 + β1·I + β2·Im + β3·Om`
  * where I is total shuffled input, Im / Om input and output on the most
  * loaded worker. Its worker-local terms are the load model
  * `l = β2·I + β3·O` that scores splits, schedules partitions and bounds
  * the max load (Lemma 1); the paper's EMR profiling found β2/β3 ≈ 4.
  * Appendix A.2 parameterizes the same model as `β1·I + βL·(4·Im + Om)`;
  * `CostModel.paperStyle` builds that form.
  */
final case class CostModel(beta0: Double, beta1: Double, beta2: Double, beta3: Double)
    extends Serializable {
  def predict(i: Double, im: Double, om: Double): Double =
    beta0 + beta1 * i + beta2 * im + beta3 * om

  /** The load `β2·I + β3·O` of a worker or partition. */
  def load(input: Double, output: Double): Double = beta2 * input + beta3 * output

  /** Lower bound L0 = (β2(|S|+|T|) + β3|S⋈T|)/w (Lemma 1). */
  def lowerBound(sCount: Double, tCount: Double, outCount: Double, w: Int): Double =
    (beta2 * (sCount + tCount) + beta3 * outCount) / w
}

object CostModel {
  /** Unit-cost default: `M = I + 4·Im + Om`, i.e. β1 = 1 and the paper's
    * β2/β3 = 4 profile. Table 12 fits its own β with `olsNonNegative`.
    */
  val default: CostModel = CostModel(0.0, 1.0, 4.0, 1.0)

  /** Appendix A.2 form `β1·I + βL·(4·Im + Om)`. */
  def paperStyle(beta1: Double, betaL: Double): CostModel =
    CostModel(0.0, beta1, 4.0 * betaL, betaL)

  /** Ordinary-least-squares fit of y ≈ Xβ (X includes no intercept
    * column; pass one explicitly if wanted). Solves the normal equations
    * by Gaussian elimination — inputs here are tiny (4 coefficients).
    */
  def ols(x: Array[Array[Double]], y: Array[Double]): Array[Double] = {
    val n = x.length
    require(n > 0 && n == y.length)
    val p = x(0).length
    // Build X'X and X'y.
    val a = Array.ofDim[Double](p, p + 1)
    for (i <- 0 until p; j <- 0 until p)
      a(i)(j) = (0 until n).map(k => x(k)(i) * x(k)(j)).sum
    for (i <- 0 until p)
      a(i)(p) = (0 until n).map(k => x(k)(i) * y(k)).sum
    // Gaussian elimination with partial pivoting.
    for (col <- 0 until p) {
      var piv = col
      for (r <- col + 1 until p) if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r
      val tmp = a(col); a(col) = a(piv); a(piv) = tmp
      val d = a(col)(col)
      require(math.abs(d) > 1e-12, "singular design matrix in OLS")
      for (j <- col to p) a(col)(j) /= d
      for (r <- 0 until p if r != col) {
        val f = a(r)(col)
        for (j <- col to p) a(r)(j) -= f * a(col)(j)
      }
    }
    Array.tabulate(p)(i => a(i)(p))
  }

  /** OLS with non-negative coefficients: fit, then zero out the most
    * negative coefficient and refit the rest, until all are >= 0 — a
    * lightweight NNLS for the 4-coefficient running-time model, whose
    * features (I, Im) are correlated enough that plain OLS can go
    * negative on noisy wall-clock samples.
    */
  def olsNonNegative(x: Array[Array[Double]], y: Array[Double]): Array[Double] = {
    val p = x(0).length
    var active = (0 until p).toVector
    var out = Array.fill(p)(0.0)
    var iterate = true
    while (iterate && active.nonEmpty) {
      val b = ols(x.map(r => active.map(r).toArray), y)
      val neg = active.indices.filter(i => b(i) < 0)
      if (neg.isEmpty) {
        out = Array.fill(p)(0.0)
        active.indices.foreach(i => out(active(i)) = b(i))
        iterate = false
      } else {
        val worst = neg.minBy(b)
        active = active.patch(worst, Nil, 1)
      }
    }
    out
  }
}
