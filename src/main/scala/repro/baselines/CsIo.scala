package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** CS_IO (Vitorovic et al., §3.1): the state-of-the-art join-matrix
  * covering approach.
  *
  * Pipeline reproduced here:
  *  1. impose a *row-major* total order on the join-attribute space
  *     (§5.2: lexicographic by (A1, ..., Ad) — the order the paper
  *     selected for its experiments);
  *  2. range-partition S and T into g quantile ranges each (rows /
  *     columns of the coarsened join matrix), quantiles from the input
  *     sample;
  *  3. gather exact per-range statistics over the full data (count +
  *     bounding box per dimension) with one Spark aggregation over S ∪ T;
  *  4. mark cell (i, j) as a candidate iff row i's S-bounding-box and
  *     column j's T-bounding-box are within band width in every
  *     dimension (conservative: never misses a joining pair);
  *  5. weight candidate cells with exact input counts and sampled output
  *     and cover them with at most w regions using binary search on the
  *     max region load and row-major greedy packing (the M-Bucket-I
  *     covering scheme CS_IO builds on — see DESIGN.md §5 for why this
  *     replaces the paper's O(n^5 log n) exact tiling).
  *
  * The result is a `MatrixCover`: S routes by row, T by column.
  */
object CsIo {

  /** Lexicographic (row-major, §5.2) comparison of attribute points. */
  def lexCompare(a: Array[Double], b: Array[Double]): Int = {
    var i = 0
    while (i < a.length) {
      if (a(i) < b(i)) return -1
      if (a(i) > b(i)) return 1
      i += 1
    }
    0
  }

  /** Number of boundaries lex-<= x == index of the range containing x.
    * Bounds shorter than x compare on their prefix only: one-element
    * bounds range-partition on A1.
    */
  def rangeOf(bounds: Array[Array[Double]], x: Array[Double]): Int = {
    var lo = 0; var hi = bounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (lexCompare(bounds(mid), x) <= 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Equal-weight quantile boundaries (g-1 of them) from sample points. */
  def quantileBounds(pts: Array[WPoint], g: Int): Array[Array[Double]] = {
    val sorted = pts.map(_.x).sortWith(lexCompare(_, _) < 0)
    if (sorted.isEmpty) return Array.empty
    (1 until g).map { i =>
      sorted(math.min(sorted.length - 1, i * sorted.length / g))
    }.toArray
  }

  /** The exact row count and bounding box of one quantile range. `box`
    * is lo ++ hi, folded by `Region.widen`; it stays `Region.noBounds`
    * while the range is empty.
    */
  private[baselines] final class RangeStats(d: Int) extends Serializable {
    var count = 0L
    val box: Array[Double] = Region.noBounds(d)
    def lo(i: Int): Double = box(i)
    def hi(i: Int): Double = box(d + i)
  }

  /** Exact count + bounding box per quantile range: `gS` ranges of S by
    * `sBounds` and `gT` ranges of T by `tBounds`, from one Spark job
    * without a shuffle.
    */
  private[baselines] def rangeStats(
      s: DataFrame, t: DataFrame, dims: Seq[String],
      sBounds: Array[Array[Double]], gS: Int,
      tBounds: Array[Array[Double]], gT: Int): (Array[RangeStats], Array[RangeStats]) = {
    val d = dims.length
    val bounds = Array(sBounds, tBounds)
    def points(df: DataFrame, side: Int) =
      BandJoinExec.tuples(df, dims).map { case (_, x) => (side, x) }
    val stats = points(s, 0).union(points(t, 1))
      .aggregate(Array(Array.fill(gS)(new RangeStats(d)), Array.fill(gT)(new RangeStats(d))))(
        { case (acc, (side, x)) =>
          val r = acc(side)(rangeOf(bounds(side), x))
          r.count += 1
          for (i <- 0 until d) Region.widen(r.box, i, x(i), x(i))
          acc
        },
        (a, b) => {
          for (side <- 0 to 1; k <- a(side).indices) {
            val (x, y) = (a(side)(k), b(side)(k))
            x.count += y.count
            for (i <- 0 until d) Region.widen(x.box, i, y.lo(i), y.hi(i))
          }
          a
        })
    (stats(0), stats(1))
  }

  /** The candidate columns of each row, ascending: the non-empty ranges
    * `cols(j)` whose box comes within the band of non-empty `rows(i)`'s
    * box in every dimension of `band`. A dimension's gap is the distance
    * of the boxes' nearest ends, rounded as `BandSpec.matches` rounds it;
    * rounding is monotone, so no two values farther apart can match, and
    * every pair of ranges that holds a joining pair is kept.
    */
  private[baselines] def boxesJoinable(rows: Array[RangeStats], cols: Array[RangeStats],
                                       band: BandSpec): Array[Array[Int]] = {
    def joinable(a: RangeStats, b: RangeStats): Boolean =
      a.count > 0 && b.count > 0 && (0 until band.d).forall(i =>
        !(a.lo(i) - b.hi(i) > band.eps(i) || b.lo(i) - a.hi(i) > band.eps(i)))
    rows.map(a => cols.indices.filter(j => joinable(a, cols(j))).toArray)
  }

  /** Build the CS_IO partitioning, with `min(192, max(2w, 48))` quantile
    * ranges per input.
    */
  def build(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
            w: Int, sample: JoinSample): MatrixCover = {
    val load = CostModel.default
    val g = math.min(192, math.max(2 * w, 48))

    val sBounds = quantileBounds(sample.sPoints, g)
    val tBounds = quantileBounds(sample.tPoints, g)
    val (sStats, tStats) = rangeStats(s, t, dims, sBounds, g, tBounds, g)

    val outW = MatrixCover.cellOutput(sample.pairs, sBounds, tBounds, g)

    val relByRow = boxesJoinable(sStats, tStats, band)

    // ----- M-Bucket-I covering -------------------------------------------
    // Regions are RECTANGLES (row interval × column interval) and every
    // candidate cell is owned by exactly one region — both properties are
    // required for exactly-once output: a joining pair is computed in
    // every region that receives both tuples, and for rectangles that is
    // precisely the single owner of cell (row(s), col(t)).
    final case class Rect(r1: Int, r2: Int, c1: Int, c2: Int, in: Double, out: Double)

    // Cover the candidate cells of rows r1..r2 with column-interval
    // rectangles of load <= cap; None if a single column already
    // overflows the cap.
    def coverBlock(r1: Int, r2: Int, cap: Double): Option[Vector[Rect]] = {
      val cols = (r1 to r2).flatMap(relByRow(_)).distinct.sorted.toArray
      if (cols.isEmpty) return Some(Vector.empty)
      val blockS = (r1 to r2).map(sStats(_).count).sum.toDouble
      def colIn(j: Int): Double = tStats(j).count.toDouble
      def cellOut(j: Int): Double =
        (r1 to r2).iterator.map(i => outW.getOrElse(i.toLong * g + j, 0.0)).sum
      val rects = Vector.newBuilder[Rect]
      var kStart = 0
      var in = blockS
      var out = 0.0
      var k = 0
      while (k < cols.length) {
        val j = cols(k)
        val dIn = colIn(j); val dOut = cellOut(j)
        if (k > kStart && load.load(in + dIn, out + dOut) > cap) {
          rects += Rect(r1, r2, cols(kStart), cols(k - 1), in, out)
          kStart = k; in = blockS; out = 0.0
        } else if (k == kStart && load.load(blockS + dIn, dOut) > cap) {
          return None // a single column exceeds the cap
        }
        in += dIn; out += dOut
        k += 1
      }
      rects += Rect(r1, r2, cols(kStart), cols(cols.length - 1), in, out)
      Some(rects.result())
    }

    // Greedy block construction: for the next uncovered row, pick the
    // block height maximizing covered-cells per region (M-Bucket-I's
    // score), bounded for cost.
    def pack(cap: Double): Option[Vector[Rect]] = {
      val all = Vector.newBuilder[Vector[Rect]]
      var count = 0
      var r1 = 0
      val maxH = math.max(4, 3 * g / math.max(w, 1))
      while (r1 < g) {
        var bestH = 1
        var bestRects: Option[Vector[Rect]] = coverBlock(r1, r1, cap)
        if (bestRects.isEmpty) return None
        var bestScore =
          relByRow(r1).length.toDouble / math.max(bestRects.get.length, 1)
        var h = 2
        while (h <= maxH && r1 + h - 1 < g) {
          coverBlock(r1, r1 + h - 1, cap) match {
            case Some(rs) =>
              val cellsHere = (r1 until r1 + h).map(relByRow(_).length).sum
              val sc = cellsHere.toDouble / math.max(rs.length, 1)
              if (sc > bestScore) { bestScore = sc; bestH = h; bestRects = Some(rs) }
            case None =>
          }
          h += 1
        }
        all += bestRects.get
        count += bestRects.get.length
        if (count > math.max(w, 1)) return None
        r1 += bestH
      }
      Some(all.result().flatten)
    }

    val totalLoad = load.load(
      (sStats.map(_.count).sum + tStats.map(_.count).sum).toDouble * g,
      outW.values.sum)
    var lo = 1e-9
    var hi = math.max(totalLoad, 1.0)
    var bestPack: Vector[Rect] = pack(hi).getOrElse(Vector.empty)
    var iter = 0
    while (iter < 48 && hi / lo > 1.001) {
      val mid = math.sqrt(lo * hi)
      pack(mid) match {
        case Some(p) => bestPack = p; hi = mid
        case None    => lo = mid
      }
      iter += 1
    }
    val regions = bestPack

    // Each candidate cell belongs to the one rectangle covering it.
    val cellRegion = (for {
      (r, k) <- regions.zipWithIndex; i <- r.r1 to r.r2
      j <- relByRow(i) if r.c1 <= j && j <= r.c2
    } yield (i.toLong * g + j) -> k).toMap
    MatrixCover(sBounds, tBounds, g, cellRegion,
      regions.map(_.in).toArray, regions.map(_.out).toArray, w)
  }
}
