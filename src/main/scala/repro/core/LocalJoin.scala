package repro.core

import scala.collection.mutable.ArrayBuffer

/** The local band-join kernel: the paper's §6.1 index-nested-loops join
  * on A1, refined by an ε-grid on up to two further dimensions with a
  * finite ε > 0 (after Böhm et al., *Epsilon Grid Order*, SIGMOD 2001).
  *
  * T is sorted by (ε-cell of each grid dimension, A1), where the cell of
  * x is `floor(x / ε)`; each run of equal cells is a group. For each s
  * the kernel visits, by binary search, the groups whose cells lie
  * between the cells of s − ε and s + ε in every grid dimension, scans
  * the A1 window [s1 − ε1, s1 + ε1] inside each one, and checks the full
  * band condition. Both ranges reach a few ulps further than ε, so that
  * the kernel finds exactly the pairs `BandSpec.matches` accepts. With no
  * grid dimension (d = 1, or no other ε > 0) T is a single group and the
  * kernel is the paper's A1 window; ε1 = 0 makes that window an
  * exact-equality range.
  */
object LocalJoin {

  /** Join two point arrays; returns (s-index, t-index) pairs. */
  def join(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec): Array[(Int, Int)] = {
    val out = new ArrayBuffer[(Int, Int)]()
    forEachMatch(s, t, band)((si, ti) => out += ((si, ti)))
    out.toArray
  }

  /** Count matches without materializing pairs (used by calibration). */
  def countMatches(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec): Long = {
    var n = 0L
    forEachMatch(s, t, band)((_, _) => n += 1)
    n
  }

  /** First index whose value is >= key (array must be sorted). */
  def lowerBound(a: Array[Double], key: Double): Int = lowerBound(a, 0, a.length, key)

  /** First index in [from, until) whose value is >= key, or `until`. */
  private def lowerBound(a: Array[Double], from: Int, until: Int, key: Double): Int = {
    var lo = from; var hi = until
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** How far from x to look for matches within `e`: four ulps of |x| + e
    * beyond e absorb the rounding of x ± e and of s − t, so no pair that
    * `BandSpec.matches` accepts (s − t may round down to exactly e) falls
    * outside the range searched.
    */
  private def reach(x: Double, e: Double): Double = e + 4 * Math.ulp(math.abs(x) + e)

  /** Report every (s-index, t-index) pair that satisfies `band`, each
    * once, in no particular order.
    */
  def forEachMatch(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec)(
      onMatch: (Int, Int) => Unit): Unit = {
    if (s.isEmpty || t.isEmpty) return
    val eps = band.eps
    val grid = (1 until band.d).filter(i => eps(i) > 0 && eps(i) < Double.PositiveInfinity)
    val d1 = if (grid.nonEmpty) grid(0) else -1
    val d2 = if (grid.length > 1) grid(1) else -1
    // The cell of x − ε, x or x + ε (`side` −1, 0 or 1) in grid dimension
    // `dim`; every point shares cell 0 in an absent one. floor(x / ε) is
    // monotone in x, so the cells between those of s − ε and s + ε hold
    // every t within ε of s. A non-finite coordinate matches nothing, so
    // its cell does not matter.
    def cell(p: Array[Double], dim: Int, side: Int): Long =
      if (dim < 0) 0L
      else math.floor((p(dim) + side * reach(p(dim), eps(dim))) / eps(dim)).toLong

    val n = t.length
    val c1 = t.map(cell(_, d1, 0))
    val c2 = t.map(cell(_, d2, 0))
    val order = Array.tabulate[Integer](n)(i => i)
    java.util.Arrays.sort(order, (a: Integer, b: Integer) => {
      val byC1 = java.lang.Long.compare(c1(a), c1(b))
      val byCells = if (byC1 != 0) byC1 else java.lang.Long.compare(c2(a), c2(b))
      if (byCells != 0) byCells else java.lang.Double.compare(t(a)(0), t(b)(0))
    })
    val tIdx = order.map(_.intValue)
    val tPts = tIdx.map(t)
    val a1 = tPts.map(_(0))
    // Groups: runs of equal (c1, c2) in sorted order; group g holds sorted
    // positions [start(g), start(g + 1)).
    val sc1 = tIdx.map(c1)
    val sc2 = tIdx.map(c2)
    val start = (0 to n).filter(k =>
      k == 0 || k == n || sc1(k) != sc1(k - 1) || sc2(k) != sc2(k - 1)).toArray
    val g1 = start.init.map(sc1)
    val g2 = start.init.map(sc2)
    val nG = g1.length
    // First group whose cells are >= (a, b) in lexicographic order.
    def groupAt(a: Long, b: Long): Int = {
      var lo = 0; var hi = nG
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (g1(mid) < a || (g1(mid) == a && g2(mid) < b)) lo = mid + 1 else hi = mid
      }
      lo
    }

    val e1 = eps(0)
    var si = 0
    while (si < s.length) {
      val p = s(si)
      val lo1 = cell(p, d1, -1); val hi1 = cell(p, d1, 1)
      val lo2 = cell(p, d2, -1); val hi2 = cell(p, d2, 1)
      val from = p(0) - reach(p(0), e1)
      val to = p(0) + reach(p(0), e1)
      var g = groupAt(lo1, lo2)
      while (g < nG && g1(g) <= hi1) {
        if (g2(g) < lo2) g = groupAt(g1(g), lo2)
        else if (g2(g) > hi2) g = if (g1(g) == Long.MaxValue) nG else groupAt(g1(g) + 1, lo2)
        else {
          val end = start(g + 1)
          var j = lowerBound(a1, start(g), end, from)
          while (j < end && a1(j) <= to) {
            if (band.matches(p, tPts(j))) onMatch(si, tIdx(j))
            j += 1
          }
          g += 1
        }
      }
      si += 1
    }
  }
}
