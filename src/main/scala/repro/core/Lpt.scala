package repro.core

/** Longest-Processing-Time greedy assignment of weighted partitions to
  * workers — the deterministic proxy for the dynamic scheduling the
  * paper's cluster performs at runtime (§4.2: load variance was chosen
  * as a scheduler-independent measure; for reporting Im/Om we still need
  * a concrete assignment).
  */
object Lpt {

  /** An LPT schedule of partitions onto workers.
    *
    * @param worker the worker of each partition
    * @param in     each worker's input sum
    * @param out    each worker's output sum
    * @param load   each worker's load: the sum of its partitions' loads,
    *               added in partition-index order
    * @param top    the most loaded worker (the first one on a tie)
    */
  final case class Schedule(worker: Array[Int], in: Array[Double], out: Array[Double],
                            load: Array[Double], top: Int)

  /** Schedule partitions with input `in(p)` and output `out(p)`, each
    * weighing `model.load(in(p), out(p))`, onto `w` workers.
    */
  def schedule(in: Array[Double], out: Array[Double], w: Int, model: CostModel): Schedule = {
    val loads = Array.tabulate(in.length)(p => model.load(in(p), out(p)))
    val worker = assign(loads, w)
    val wIn = new Array[Double](w)
    val wOut = new Array[Double](w)
    val wLoad = new Array[Double](w)
    for (p <- loads.indices) {
      val k = worker(p)
      wLoad(k) += loads(p); wIn(k) += in(p); wOut(k) += out(p)
    }
    var top = 0
    for (k <- 1 until w) if (wLoad(k) > wLoad(top)) top = k
    Schedule(worker, wIn, wOut, wLoad, top)
  }

  /** Assign `loads(i)` to one of `w` workers; returns worker index per
    * partition. Partitions are placed heaviest-first (equal loads in
    * partition order) on the currently least-loaded worker (ties broken
    * by worker index).
    */
  private def assign(loads: Array[Double], w: Int): Array[Int] = {
    require(w >= 1)
    val order = IndexSort.byKey(loads.map(-_))
    val workerLoad = Array.fill(w)(0.0)
    val out = new Array[Int](loads.length)
    for (p <- order) {
      var best = 0
      var i = 1
      while (i < w) {
        if (workerLoad(i) < workerLoad(best)) best = i
        i += 1
      }
      out(p) = best
      workerLoad(best) += loads(p)
    }
    out
  }
}
