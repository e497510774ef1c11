package repro.core

import scala.collection.mutable.ArrayBuffer

/** The paper's local band-join algorithm (§6.1): range-partition T on
  * A1 into ranges of size ε1, then for each s probe the range containing
  * s and its two neighbours, checking the full band condition.
  *
  * For ε1 = 0 the A1 ranges degenerate; we fall back to sort + binary
  * search on A1 with an exact-equality window, which is the same
  * algorithm with an infinitesimal range.
  */
object LocalJoin {

  /** Join two point arrays; returns (s-index, t-index) pairs. */
  def join(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec): Array[(Int, Int)] = {
    val out = new ArrayBuffer[(Int, Int)]()
    probe(s, t, band)((si, ti) => out += ((si, ti)))
    out.toArray
  }

  /** Count matches without materializing pairs (used by calibration). */
  def countMatches(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec): Long = {
    var n = 0L
    probe(s, t, band)((_, _) => n += 1)
    n
  }

  /** First index whose value is >= key (array must be sorted). */
  def lowerBound(a: Array[Double], key: Double): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Sort T indices by A1; for each s, binary-search the window
    * [sA1-ε1, sA1+ε1] and report every (s-index, t-index) in it that
    * satisfies the full band condition.
    */
  private def probe(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec)(
      onMatch: (Int, Int) => Unit): Unit = {
    if (s.isEmpty || t.isEmpty) return
    val tIdx = t.indices.toArray.sortBy(i => t(i)(0))
    val tA1 = tIdx.map(i => t(i)(0))
    val e1 = band.eps(0)
    var si = 0
    while (si < s.length) {
      val sp = s(si)
      val hiV = sp(0) + e1
      var lo = lowerBound(tA1, sp(0) - e1)
      while (lo < tA1.length && tA1(lo) <= hiV) {
        val ti = tIdx(lo)
        if (band.matches(sp, t(ti))) onMatch(si, ti)
        lo += 1
      }
      si += 1
    }
  }
}
