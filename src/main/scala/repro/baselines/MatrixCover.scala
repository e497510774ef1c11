package repro.baselines

import scala.collection.mutable
import repro.core._

/** A cover of the coarsened join matrix — the M-Bucket-I family of
  * Okcan & Riedewald (SIGMOD 2011) that CS_IO and IEJoin's partitioning
  * both belong to. S-tuples index its rows by their range among
  * `rowBounds`, T-tuples its columns among `colBounds` (`CsIo.rangeOf`;
  * one-element bounds compare A1 only). Each candidate cell is owned by
  * exactly one region: an S-tuple is shipped to every region owning a
  * cell of its row, a T-tuple to every region owning a cell of its
  * column, so regions that are rectangles produce each output pair once —
  * in the owner of cell (row(s), col(t)).
  *
  * @param cellOwner   owner region of each candidate cell, keyed
  *                    `row * numCols + col`
  * @param regionWorker worker of each region
  */
final class MatrixCover(
    rowBounds: Array[Array[Double]],
    colBounds: Array[Array[Double]],
    numCols: Int,
    cellOwner: Map[Long, Int],
    regionWorker: Array[Int],
    val numWorkers: Int) extends BandPartitioning {

  def numRegions: Int = regionWorker.length

  private def rowOf(x: Array[Double]): Int = CsIo.rangeOf(rowBounds, x)
  private def colOf(x: Array[Double]): Int = CsIo.rangeOf(colBounds, x)

  /** Sorted owners of the cells of each of `n` rows (or columns). */
  private def owners(n: Int, line: Long => Int): Array[Array[Int]] = {
    val byLine = cellOwner.toSeq.groupMap(kv => line(kv._1))(_._2)
    Array.tabulate(n)(i => byLine.getOrElse(i, Nil).distinct.sorted.toArray)
  }
  private val rowRegions = owners(rowBounds.length + 1, k => (k / numCols).toInt)
  private val colRegions = owners(colBounds.length + 1, k => (k % numCols).toInt)

  // A row or column without a candidate cell still needs a home.
  private def regionsOf(line: Array[Array[Int]], i: Int): Array[Int] =
    if (line(i).nonEmpty) line(i) else Array(math.floorMod(i, numRegions))

  override def assignS(x: Array[Double], salt: Long): Array[Int] = regionsOf(rowRegions, rowOf(x))

  override def assignT(x: Array[Double], salt: Long): Array[Int] = regionsOf(colRegions, colOf(x))

  override def partitionWorker(pid: Int): Int = regionWorker(pid)

  override def pairPartition(s: Array[Double], sSalt: Long,
                             t: Array[Double], tSalt: Long): Int =
    cellOwner(rowOf(s).toLong * numCols + colOf(t))
}

object MatrixCover {

  /** Sampled output weight per cell, keyed `row * numCols + col`. */
  def cellOutput(pairs: Array[WPair], rowBounds: Array[Array[Double]],
                 colBounds: Array[Array[Double]], numCols: Int): mutable.HashMap[Long, Double] = {
    val outW = mutable.HashMap.empty[Long, Double]
    pairs.foreach { p =>
      val key = CsIo.rangeOf(rowBounds, p.s).toLong * numCols + CsIo.rangeOf(colBounds, p.t)
      outW(key) = outW.getOrElse(key, 0.0) + p.weight
    }
    outW
  }

  /** The cover whose region k has estimated input `in(k)` and output
    * `out(k)`; regions go to the `w` workers by LPT. Without any region
    * (no candidate cell) one inert region is kept, so every tuple still
    * has a home, as Definition 1 requires.
    */
  def apply(rowBounds: Array[Array[Double]], colBounds: Array[Array[Double]], numCols: Int,
            cellOwner: Map[Long, Int], in: Array[Double], out: Array[Double],
            w: Int): MatrixCover = {
    val regionWorker =
      if (in.isEmpty) Array(0) else Lpt.schedule(in, out, w, CostModel.default).worker
    new MatrixCover(rowBounds, colBounds, numCols, cellOwner, regionWorker, w)
  }
}
