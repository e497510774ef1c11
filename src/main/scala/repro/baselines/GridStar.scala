package repro.baselines

import repro.core._

/** GRID* (§6.5): automatic grid-size tuning for Grid-ε. Starting from
  * cell size εi, it evaluates coarser grids j·εi with the same
  * running-time model M used by RecPart and CS_IO (metrics estimated on
  * the input/output sample) and keeps the multiplier minimizing M.
  *
  * The paper's search increments j = 2, 3, ... until a local minimum;
  * for reverse-Pareto data the winning multiplier reaches the thousands
  * (Table 6), so we search multiplicatively (doubling) first and then
  * refine linearly around the bracket — same optimum, fewer model
  * evaluations. Each evaluation is sample-based and cheap.
  */
object GridStar {

  final case class Eval(multiplier: Int, estI: Double, estIm: Double,
                        estOm: Double, predicted: Double)

  final case class Result(part: GridEps, chosen: Eval, sweep: Seq[Eval])

  /** Sample-estimated (I, Im, Om) and model prediction for grid j·ε. */
  def evaluate(band: BandSpec, w: Int, j: Int, sample: JoinSample,
               model: CostModel): Eval = {
    val grid = GridEps(band, w, j)
    val inW = Array.fill(w)(0.0)
    val outWk = Array.fill(w)(0.0)
    var estI = 0.0
    sample.sPoints.foreach { p =>
      val pid = grid.assignS(p.x, 0L)(0)
      inW(grid.partitionWorker(pid)) += p.weight
      estI += p.weight
    }
    sample.tPoints.foreach { p =>
      val pids = grid.assignT(p.x, 0L)
      pids.foreach(pid => inW(grid.partitionWorker(pid)) += p.weight)
      estI += p.weight * pids.length
    }
    sample.pairs.foreach { p =>
      outWk(grid.partitionWorker(grid.pairPartition(p.s, 0L, p.t, 0L))) += p.weight
    }
    var mx = 0
    for (k <- 1 until w)
      if (model.load(inW(k), outWk(k)) > model.load(inW(mx), outWk(mx))) mx = k
    Eval(j, estI, inW(mx), outWk(mx), model.predict(estI, inW(mx), outWk(mx)))
  }

  /** Largest grid multiplier searched. */
  private val MaxMultiplier = 1 << 15

  /** Search the multiplier minimizing M and return the tuned Grid-ε. */
  def tune(band: BandSpec, w: Int, sample: JoinSample): Result = {
    val sweep = scala.collection.mutable.ArrayBuffer.empty[Eval]
    def eval(j: Int): Eval = {
      val e = evaluate(band, w, j, sample, CostModel.default)
      sweep += e
      e
    }
    // Doubling phase: bracket the minimum.
    var best = eval(1)
    var j = 2
    var grown = best
    var increasesInARow = 0
    while (j <= MaxMultiplier && increasesInARow < 2) {
      grown = eval(j)
      if (grown.predicted < best.predicted) { best = grown; increasesInARow = 0 }
      else increasesInARow += 1
      j *= 2
    }
    // Linear refinement between the doubling neighbours of the best j.
    val lo = math.max(1, best.multiplier / 2)
    val hi = math.min(MaxMultiplier, best.multiplier * 2)
    val step = math.max(1, (hi - lo) / 16)
    var k = lo
    while (k <= hi) {
      if (k != best.multiplier) {
        val e = eval(k)
        if (e.predicted < best.predicted) best = e
      }
      k += step
    }
    Result(GridEps(band, w, best.multiplier), best, sweep.toSeq)
  }
}
