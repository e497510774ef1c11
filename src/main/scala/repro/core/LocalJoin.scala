package repro.core

import scala.collection.mutable.ArrayBuffer

/** The local band-join kernel: the paper's §6.1 index-nested-loops join
  * on A1, refined by an ε-grid on up to two further dimensions with a
  * finite ε > 0 (after Böhm et al., *Epsilon Grid Order*, SIGMOD 2001)
  * and by a cell signature on up to eight more.
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
  *
  * The signature dimensions are the further dimensions with a finite
  * ε > 0, at most eight. A t's signature packs its cell in each of them
  * into one byte-wide lane of a `Long`: the cell less T's lowest cell in
  * that dimension, clamped to 0..127. That map is monotone, so a t within
  * reach of s has each lane between those of s's cells of s − ε and
  * s + ε; two SWAR compares reject every other candidate before the band
  * condition is checked.
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

  /** Lanes of a signature: one byte each, 7 bits of cell and a guard bit. */
  private val Lanes = 8
  private val Guards = 0x8080808080808080L

  /** Cell `c` of a signature dimension whose lowest T cell is `base`, in
    * 0..127: `c − base`, clamped (the difference may overflow a `Long`).
    */
  private def lane(c: Long, base: Long): Long =
    if (c <= base) 0L
    else { val o = c - base; if (o < 0 || o > 127) 127L else o }

  /** Every lane of `x` lies between the same lanes of `lo` and `hi`. With
    * each lane's guard bit set before the subtraction, no borrow crosses
    * a lane, and the guard survives iff that lane did not go below zero.
    */
  private def within(lo: Long, x: Long, hi: Long): Boolean =
    (((x | Guards) - lo) & Guards) == Guards && (((hi | Guards) - x) & Guards) == Guards

  /** Report every (s-index, t-index) pair that satisfies `band`, each
    * once, in no particular order.
    */
  def forEachMatch(s: Array[Array[Double]], t: Array[Array[Double]], band: BandSpec)(
      onMatch: (Int, Int) => Unit): Unit = {
    if (s.isEmpty || t.isEmpty) return
    val eps = band.eps
    val filtered = (1 until band.d).filter(i => eps(i) > 0 && eps(i) < Double.PositiveInfinity)
    val d1 = if (filtered.nonEmpty) filtered(0) else -1
    val d2 = if (filtered.length > 1) filtered(1) else -1
    val sigDims = filtered.slice(2, 2 + Lanes).toArray
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
    val tIdx = IndexSort.stable(c1, c2, t.map(p => IndexSort.orderKey(p(0))))
    // T's points in sorted order, flattened: point j is tx(j·d until (j+1)·d).
    val d = band.d
    val tx = new Array[Double](n * d)
    for (j <- 0 until n) System.arraycopy(t(tIdx(j)), 0, tx, j * d, d)
    val a1 = Array.tabulate(n)(j => tx(j * d))
    // Each sorted T point's cell in each signature dimension, and T's lowest.
    val sigCells = sigDims.map(dim => tIdx.map(i => cell(t(i), dim, 0)))
    val base = sigCells.map(_.foldLeft(Long.MaxValue)(math.min))
    // The signature of p's cells of p − ε or p + ε (`side` −1 or 1).
    def signature(p: Array[Double], side: Int): Long = {
      var sig = 0L
      var k = 0
      while (k < sigDims.length) {
        sig |= lane(cell(p, sigDims(k), side), base(k)) << (8 * k)
        k += 1
      }
      sig
    }
    val sig = new Array[Long](n)
    for (k <- sigDims.indices; j <- 0 until n) sig(j) |= lane(sigCells(k)(j), base(k)) << (8 * k)
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
      val sigLo = signature(p, -1)
      val sigHi = signature(p, 1)
      // At ε1 = ∞ an infinite s1 matches every finite t1, though s1 ∓ ∞ is NaN.
      val (from, to) =
        if (e1 == Double.PositiveInfinity) (Double.NegativeInfinity, e1)
        else (p(0) - reach(p(0), e1), p(0) + reach(p(0), e1))
      var g = groupAt(lo1, lo2)
      while (g < nG && g1(g) <= hi1) {
        if (g2(g) < lo2) g = groupAt(g1(g), lo2)
        else if (g2(g) > hi2) g = if (g1(g) == Long.MaxValue) nG else groupAt(g1(g) + 1, lo2)
        else {
          val end = start(g + 1)
          var j = lowerBound(a1, start(g), end, from)
          while (j < end && a1(j) <= to) {
            if (within(sigLo, sig(j), sigHi) && band.matchesAt(p, tx, j * d)) onMatch(si, tIdx(j))
            j += 1
          }
          g += 1
        }
      }
      si += 1
    }
  }
}
