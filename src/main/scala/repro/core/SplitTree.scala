package repro.core

import scala.collection.mutable.ArrayBuffer

/** RecPart's split tree (Figures 3 and 7) plus the tuple-routing logic of
  * Algorithm 3.
  *
  * A path from the root to a leaf defines a rectangular partition of the
  * join-attribute space as the conjunction of the split predicates along
  * the path; by convention the left child satisfies `A_dim < x`.
  *
  * `duplicateT = true` marks a T-split: S-tuples are partitioned (routed
  * to exactly one child) while T-tuples within band width of the
  * boundary are copied to both children. An S-split (`duplicateT =
  * false`) reverses the roles — that is the "symmetric partitioning"
  * extension of §4.2.
  *
  * A leaf holds an internal 1-Bucket grid of `r × c` sub-partitions
  * (r = c = 1 for regular leaves): an S-tuple picks a pseudo-random row
  * and is sent to all `c` partitions of that row, a T-tuple picks a
  * column and is sent to all `r` partitions of that column, so a joining
  * pair meets in exactly the (row(s), col(t)) cell.
  */
sealed trait SplitNode extends Serializable

final case class InnerNode(
    dim: Int, x: Double, duplicateT: Boolean,
    left: SplitNode, right: SplitNode) extends SplitNode

final case class LeafNode(leafId: Int, r: Int, c: Int, pidBase: Int) extends SplitNode {
  require(r >= 1 && c >= 1)
  /** Number of internal 1-Bucket sub-partitions. */
  def numPids: Int = r * c
}

object SplitTree {

  /** SplitMix64 — deterministic "random" row/column choice per tuple. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Pseudo-random 1-Bucket row for an S-tuple in `leaf`. */
  def rowOf(leaf: LeafNode, salt: Long): Int =
    math.floorMod(mix(salt ^ (leaf.leafId.toLong << 32) ^ 0x5157L), leaf.r).toInt

  /** Pseudo-random 1-Bucket column for a T-tuple in `leaf`. */
  def colOf(leaf: LeafNode, salt: Long): Int =
    math.floorMod(mix(salt ^ (leaf.leafId.toLong << 32) ^ 0xC011L), leaf.c).toInt

  /** A tuple at v, copied within `reach` of a split at x, goes left
    * (`A_dim < x`) iff some left value u matches it, `|v − u| <= reach`
    * as `BandSpec.matches` rounds it. Rounding is monotone, so the left
    * value nearest to a v right of the split, `nextDown(x)`, decides.
    */
  def reachesLeft(v: Double, x: Double, reach: Double): Boolean =
    v < x || v - Math.nextDown(x) <= reach

  /** A tuple at v, copied within `reach` of a split at x, goes right iff
    * some right value matches it; for a v left of the split, x is the
    * nearest. NaN goes right, as at a split that partitions its side
    * (`A_dim < x` fails).
    */
  def reachesRight(v: Double, x: Double, reach: Double): Boolean =
    !(v < x) || x - v <= reach

  /** Algorithm 3 for an S-tuple. */
  def assignS(root: SplitNode, band: BandSpec, x: Array[Double], salt: Long): Array[Int] =
    assign(root, band, x, salt, isS = true)

  /** Algorithm 3 for a T-tuple. */
  def assignT(root: SplitNode, band: BandSpec, x: Array[Double], salt: Long): Array[Int] =
    assign(root, band, x, salt, isS = false)

  /** Algorithm 3 for a tuple of S (`isS`) or T: partitioned at the splits
    * that duplicate the other side, duplicated across the other splits'
    * boundaries it is within band width of; at each leaf reached, fan out
    * to all `c` partitions of its 1-Bucket row (S) or all `r` partitions
    * of its column (T).
    */
  private def assign(root: SplitNode, band: BandSpec, x: Array[Double], salt: Long,
                     isS: Boolean): Array[Int] = {
    val out = new ArrayBuffer[Int]()
    def walk(n: SplitNode): Unit = n match {
      case leaf: LeafNode =>
        val first = leaf.pidBase + (if (isS) rowOf(leaf, salt) * leaf.c else colOf(leaf, salt))
        val step = if (isS) 1 else leaf.c
        val cells = if (isS) leaf.c else leaf.r
        var i = 0
        while (i < cells) { out += first + i * step; i += 1 }
      case InnerNode(dim, sx, dupT, l, r) =>
        if (dupT == isS) { if (x(dim) < sx) walk(l) else walk(r) }
        else {
          val e = band.eps(dim)
          if (reachesLeft(x(dim), sx, e)) walk(l)
          if (reachesRight(x(dim), sx, e)) walk(r)
        }
    }
    walk(root)
    out.toArray
  }

  /** The unique partition producing joining pair (s, t): follow s's side
    * at T-splits, t's side at S-splits, then the (row(s), col(t)) cell
    * of the leaf's internal grid.
    */
  def pairPartition(root: SplitNode, s: Array[Double], sSalt: Long,
                    t: Array[Double], tSalt: Long): Int = {
    var n = root
    while (true) {
      n match {
        case leaf: LeafNode =>
          return leaf.pidBase + rowOf(leaf, sSalt) * leaf.c + colOf(leaf, tSalt)
        case InnerNode(dim, x, dupT, l, r) =>
          val v = if (dupT) s(dim) else t(dim)
          n = if (v < x) l else r
      }
    }
    -1 // unreachable
  }

  /** All leaves, left to right. */
  def leaves(root: SplitNode): Seq[LeafNode] = root match {
    case l: LeafNode => Seq(l)
    case InnerNode(_, _, _, l, r) => leaves(l) ++ leaves(r)
  }

  /** Total number of partition ids (1-Bucket cells across leaves). */
  def numPids(root: SplitNode): Int = leaves(root).map(_.numPids).sum
}

/** The finished RecPart partitioning: a split tree plus the LPT map from
  * partition ids to workers.
  */
final case class TreePartitioning(
    root: SplitNode,
    band: BandSpec,
    pidWorker: Array[Int],
    numWorkers: Int) extends BandPartitioning {

  override def assignS(x: Array[Double], salt: Long): Array[Int] =
    SplitTree.assignS(root, band, x, salt)

  override def assignT(x: Array[Double], salt: Long): Array[Int] =
    SplitTree.assignT(root, band, x, salt)

  override def partitionWorker(pid: Int): Int = pidWorker(pid)

  override def pairPartition(s: Array[Double], sSalt: Long, t: Array[Double], tSalt: Long): Int =
    SplitTree.pairPartition(root, s, sSalt, t, tSalt)
}
