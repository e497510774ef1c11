package repro.core

/** Band-join condition: `∀i |s.Ai - t.Ai| <= eps(i)`.
  *
  * @param eps per-dimension band widths (all >= 0); `eps.length` is the
  *            dimensionality d of the join.
  */
final case class BandSpec(eps: Array[Double]) extends Serializable {
  require(eps.nonEmpty && eps.forall(_ >= 0), "band widths must be >= 0")

  /** Number of join attributes (dimensions). */
  def d: Int = eps.length

  /** True iff the pair (s, t) is in the band-join output. As in SQL, a
    * NaN coordinate never matches.
    */
  def matches(s: Array[Double], t: Array[Double]): Boolean = matchesAt(s, t, 0)

  /** `matches(s, t.slice(at, at + d))`, without the copy. */
  def matchesAt(s: Array[Double], t: Array[Double], at: Int): Boolean = {
    var i = 0
    while (i < eps.length) {
      if (!(math.abs(s(i) - t(at + i)) <= eps(i))) return false
      i += 1
    }
    true
  }

  override def toString: String = s"Band(${eps.mkString(",")})"
}

object BandSpec {
  /** Uniform band width `e` in each of `d` dimensions. */
  def uniform(d: Int, e: Double): BandSpec = BandSpec(Array.fill(d)(e))
}

/** Axis-aligned hyper-rectangle `[lo(i), hi(i)]` in join-attribute space.
  *
  * Used by RecPart for the "small partition" check; tuple routing itself
  * only uses split predicates and therefore covers unbounded space.
  */
final case class Region(lo: Array[Double], hi: Array[Double]) extends Serializable {
  require(lo.length == hi.length)

  def d: Int = lo.length

  /** Extent of the region in dimension `i`. */
  def length(i: Int): Double = hi(i) - lo(i)

  /** Paper §4.2: a partition is "small" in dimension i as soon as its
    * size is below twice the band width in that dimension. A zero band
    * width therefore never makes a dimension small.
    */
  def smallInDim(i: Int, band: BandSpec): Boolean =
    band.eps(i) > 0 && length(i) < 2 * band.eps(i)

  /** Small in every dimension: switch the leaf to 1-Bucket mode. */
  def smallEverywhere(band: BandSpec): Boolean =
    (0 until d).forall(smallInDim(_, band))

  /** The two sub-regions produced by splitting at `x` in dimension `dim`
    * (left child satisfies `A_dim < x` by the paper's convention).
    */
  def split(dim: Int, x: Double): (Region, Region) = {
    val lHi = hi.clone(); lHi(dim) = x
    val rLo = lo.clone(); rLo(dim) = x
    (Region(lo.clone(), lHi), Region(rLo, hi.clone()))
  }
}

/** Bounding boxes folded as SQL's `min` / `max` order doubles: NaN above
  * every other value, ±0 equal. A box in `d` dimensions is one array,
  * lo(0 until d) ++ hi(0 until d).
  */
object Region {

  /** The empty box, which `widen` takes to the first values it sees. */
  private[repro] def noBounds(d: Int): Array[Double] =
    Array.fill(d)(Double.NaN) ++ Array.fill(d)(Double.NegativeInfinity)

  /** Widen box `b` in dimension `i` to cover [lo, hi]. */
  private[repro] def widen(b: Array[Double], i: Int, lo: Double, hi: Double): Unit = {
    val d = b.length / 2
    if (lo < b(i) || (b(i).isNaN && !lo.isNaN)) b(i) = lo
    if (hi > b(d + i) || (hi.isNaN && !b(d + i).isNaN)) b(d + i) = hi
  }
}
