package repro.core

/** Stable sorts of index arrays on primitive keys, without boxing. */
private[core] object IndexSort {

  /** The indices `0 until n` ascending on the key columns `keys`, compared
    * in turn as signed longs; indices with equal keys keep their order, as
    * in a stable sort of the items themselves. A bottom-up merge sort.
    */
  def stable(keys: Array[Long]*): Array[Int] = {
    val cols = keys.toArray
    val n = cols(0).length
    def cmp(a: Int, b: Int): Int = {
      var c = 0
      var r = 0
      while (r == 0 && c < cols.length) { r = java.lang.Long.compare(cols(c)(a), cols(c)(b)); c += 1 }
      r
    }
    var src = Array.tabulate(n)(i => i)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var i = lo; var j = mid; var k = lo
        while (k < hi) {
          if (j == hi || (i < mid && cmp(src(i), src(j)) <= 0)) { dst(k) = src(i); i += 1 }
          else { dst(k) = src(j); j += 1 }
          k += 1
        }
        lo = hi
      }
      val tmp = src; src = dst; dst = tmp
      width *= 2
    }
    src
  }

  /** A long whose signed order is `java.lang.Double.compare`'s order of
    * `x`: −0.0 below 0.0, every NaN equal and last.
    */
  def orderKey(x: Double): Long = {
    val b = java.lang.Double.doubleToLongBits(x)
    b ^ ((b >> 63) & Long.MaxValue)
  }

  /** The indices of `key` ascending on `java.lang.Double.compare`, as a
    * stable `sortBy` on doubles orders them.
    */
  def byKey(key: Array[Double]): Array[Int] = stable(key.map(orderKey))
}
