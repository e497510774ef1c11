package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Which rule ends the repeat-loop of Algorithm 1 (§4.2). */
sealed trait Termination
object Termination {
  /** Cost-model driven: winner minimizes `M`. The paper's windowed
    * early stop is not implemented; the loop runs to its iteration cap
    * (DESIGN.md §6).
    */
  case object Applied extends Termination
  /** Model-free: stop once duplication overhead exceeds the smallest
    * max-load overhead seen; winner minimizes max{dupOH, loadOH}.
    */
  case object Theoretical extends Termination
}

/** Configuration for the RecPart optimizer.
  *
  * @param w          number of (logical) workers
  * @param symmetric  enable S-splits (RecPart) or not (RecPart-S)
  * @param costModel  running-time model for the applied termination rule;
  *                   its worker-local terms β2·I + β3·O score splits
  * @param termination which stopping rule / winner definition to use
  * @param gridFallback also offer non-small leaves the internal 1-Bucket
  *                   step (see `bestSplit`)
  */
final case class RecPartConfig(
    w: Int,
    symmetric: Boolean = true,
    costModel: CostModel = CostModel.default,
    termination: Termination = Termination.Applied,
    gridFallback: Boolean = false)

/** Sample-estimated state of the partitioning after an iteration. */
final case class IterStats(
    iter: Int,
    numPartitions: Int,
    estI: Double, estIm: Double, estOm: Double, estLm: Double,
    dupOverhead: Double, loadOverhead: Double,
    predictedTime: Double, objective: Double)

/** Result of running the optimizer. */
final case class RecPartResult(
    partitioning: TreePartitioning,
    iterations: Int,
    chosenIteration: Int,
    optTimeMs: Double,
    est: IterStats,
    trajectory: Vector[IterStats])

/** RecPart (Algorithms 1 and 2): recursive partitioning of the
  * d-dimensional join-attribute space driven by the split score
  * ΔVariance-reduction / ΔDuplication-increase.
  */
object RecPart {

  /** Duplication floor (in tuples) for the split score
    * ΔVar/max(ΔDup, minDup). The paper scores zero-duplication splits as
    * "infinitely" better; a literal bonus constant loses the ΔVar
    * tie-break to floating-point absorption, so we realize the same
    * preference as a ratio whose floor is the *estimation resolution*:
    * the weight of one input-sample point. An estimated duplication of
    * zero only means "fewer than one sampled tuple", so scoring it as
    * exactly one sample point keeps zero-dup splits ranked by ΔVar while
    * preventing worthless zero-dup slivers from permanently shadowing
    * high-ΔVar splits that duplicate a little.
    */
  private def dupFloor(sample: JoinSample): Double =
    math.max(1.0, (sample.sCount + sample.tCount).toDouble /
      math.max(1, sample.sPoints.length + sample.tPoints.length))

  sealed private trait Split
  private final case class RegularSplit(dim: Int, x: Double, duplicateT: Boolean) extends Split
  private case object IncRow extends Split
  private case object IncCol extends Split

  /** A leaf's best split with its ΔVar and ranking score ΔVar/ΔDup. */
  private final case class Candidate(score: Double, dVar: Double, split: Split)

  // Mutable tree: a Slot owns the current node so a leaf can be replaced
  // in place when it is split.
  private final class Slot { var node: MNode = null }
  sealed private trait MNode
  private final class MInner(val dim: Int, val x: Double, val duplicateT: Boolean,
                             val left: Slot, val right: Slot) extends MNode
  private final class MLeaf(val leaf: Leaf) extends MNode

  private final class Leaf(
      val id: Int,
      var slot: Slot,
      val region: Region,
      val sPts: Array[WPoint],
      val tPts: Array[WPoint],
      val pairs: Array[WPair]) {
    var r: Int = 1
    var c: Int = 1
    var stamp: Int = 0
    var best: Option[Candidate] = None

    val sW: Double = sPts.iterator.map(_.weight).sum
    val tW: Double = tPts.iterator.map(_.weight).sum
    val oW: Double = pairs.iterator.map(_.weight).sum

    /** Σ l² over the rr·cc internal 1-Bucket sub-partitions. */
    def sumSq(rr: Int, cc: Int, lm: LoadModel): Double = {
      val l = lm.load(sW / rr + tW / cc, oW / (rr.toDouble * cc))
      rr.toDouble * cc * l * l
    }

    /** Estimated shuffled input of this leaf incl. internal duplication. */
    def inputEst: Double = c * sW + r * tW

    /** Append the input and output of each of the r·c sub-partitions. */
    def addSubs(in: ArrayBuffer[Double], out: ArrayBuffer[Double]): Unit = {
      in ++= Iterator.fill(r * c)(sW / r + tW / c)
      out ++= Iterator.fill(r * c)(oW / (r.toDouble * c))
    }
  }

  private final case class QE(score: Double, leafId: Int, stamp: Int)
  private val qeOrd: Ordering[QE] = Ordering.by((q: QE) => (q.score, -q.leafId))

  /** Run the optimizer on a drawn sample (Algorithm 1). The tree grows
    * once; whenever an iteration's objective beats every earlier one,
    * the tree is materialized, so the winner is the earliest iteration
    * with the minimal objective.
    *
    * @param rootRegion exact bounding box of S ∪ T in join-attribute
    *                   space (used only for the "small partition" check)
    */
  def optimize(sample: JoinSample, rootRegion: Region, band: BandSpec,
               cfg: RecPartConfig): RecPartResult = {
    val t0 = System.nanoTime()
    val rootSlot = new Slot
    var nextId = 0
    val leaves = mutable.LinkedHashMap.empty[Int, Leaf]

    def newLeaf(slot: Slot, region: Region, sp: Array[WPoint], tp: Array[WPoint],
                pr: Array[WPair]): Leaf = {
      val l = new Leaf(nextId, slot, region, sp, tp, pr)
      nextId += 1
      slot.node = new MLeaf(l)
      leaves(l.id) = l
      l
    }

    val k = variancePrefactor(cfg.w)
    val minDup = dupFloor(sample)
    val pq = mutable.PriorityQueue.empty[QE](qeOrd)

    def rescore(l: Leaf): Unit = {
      l.stamp += 1
      l.best = bestSplit(l, band, cfg, k, minDup)
      l.best.foreach(b => if (b.score > 0) pq.enqueue(QE(b.score, l.id, l.stamp)))
    }
    rescore(newLeaf(rootSlot, rootRegion, sample.sPoints, sample.tPoints, sample.pairs))

    val input0 = (sample.sCount + sample.tCount).toDouble
    val l0 = cfg.costModel.loadModel.lowerBound(sample.sCount.toDouble, sample.tCount.toDouble,
      sample.outputEstimate, cfg.w)
    val traj = Vector.newBuilder[IterStats]
    var stats = snapshot(leaves.values, input0, l0, cfg, 0)
    traj += stats
    var best = stats
    var bestPart = materialize(rootSlot, band, cfg)
    var minLoadOH = stats.loadOverhead
    val cap = math.max(12 * cfg.w, 80) // repeat-loop iteration cap

    var done = false
    while (!done) {
      // Pop the highest-scoring live leaf (Algorithm 1 line 6).
      var picked: Option[Leaf] = None
      while (picked.isEmpty && pq.nonEmpty) {
        val qe = pq.dequeue()
        leaves.get(qe.leafId) match {
          case Some(l) if l.stamp == qe.stamp && l.best.exists(_.score > 0) => picked = Some(l)
          case _ => // stale entry
        }
      }
      picked match {
        case None => done = true
        case Some(leaf) =>
          leaf.best.get.split match {
            case RegularSplit(dim, x, dupT) =>
              val (l, r) = applyRegular(leaf, dim, x, dupT, band, newLeaf)
              leaves.remove(leaf.id)
              rescore(l); rescore(r)
            case IncRow => leaf.r += 1; rescore(leaf)
            case IncCol => leaf.c += 1; rescore(leaf)
          }
          stats = snapshot(leaves.values, input0, l0, cfg, stats.iter + 1)
          traj += stats
          // Double.compare is a total order (NaN last); strict, so ties
          // keep the earlier iteration.
          if (java.lang.Double.compare(stats.objective, best.objective) < 0) {
            best = stats
            bestPart = materialize(rootSlot, band, cfg)
          }
          if (stats.loadOverhead < minLoadOH) minLoadOH = stats.loadOverhead
          // Duplication only grows; under the theoretical rule, once it
          // exceeds the best load overhead seen, no later iteration can
          // win. The applied rule runs to the cap (DESIGN.md §6).
          done = stats.iter >= cap || (cfg.termination == Termination.Theoretical &&
            stats.dupOverhead > minLoadOH)
      }
    }
    val trajectory = traj.result()
    RecPartResult(bestPart, trajectory.size - 1, best.iter,
      (System.nanoTime() - t0) / 1e6, best, trajectory)
  }

  /** Convenience wrapper: sample from DataFrames, compute the exact root
    * bounding box, then optimize.
    */
  def fromDataFrames(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
                     cfg: RecPartConfig, kIn: Int = 8000, kOut: Int = 8000,
                     seed: Long = 42): RecPartResult = {
    val sample = Samples.draw(s, t, dims, band, kIn, kOut, seed)
    val region = exactBounds(s, t, dims)
    optimize(sample, region, band, cfg)
  }

  /** Exact per-dimension min/max over S ∪ T. When both inputs are
    * empty there are no bounds; the region degenerates to the origin.
    */
  def exactBounds(s: DataFrame, t: DataFrame, dims: Seq[String]): Region = {
    import org.apache.spark.sql.functions._
    val u = s.select(dims.map(c => col(c).cast("double").as(c)): _*)
      .unionByName(t.select(dims.map(c => col(c).cast("double").as(c)): _*))
    val aggs = dims.flatMap(c => Seq(min(col(c)), max(col(c))))
    val row = u.agg(aggs.head, aggs.tail: _*).collect()(0)
    def bound(i: Int): Double = if (row.isNullAt(i)) 0.0 else row.getDouble(i)
    Region(Array.tabulate(dims.length)(i => bound(2 * i)),
      Array.tabulate(dims.length)(i => bound(2 * i + 1)))
  }

  /** `(w-1)/w²` — the prefactor of `V[P] = (w-1)/w² Σ l_p²` (§4.2). */
  def variancePrefactor(w: Int): Double = (w - 1).toDouble / (w.toDouble * w)

  /** Replace `leaf` by an inner node and return its two new children. */
  private def applyRegular(
      leaf: Leaf, dim: Int, x: Double, duplicateT: Boolean, band: BandSpec,
      newLeaf: (Slot, Region, Array[WPoint], Array[WPoint], Array[WPair]) => Leaf): (Leaf, Leaf) = {
    val e = band.eps(dim)
    val (regL, regR) = leaf.region.split(dim, x)
    val (sL, sR, tL, tR) =
      if (duplicateT) (
        leaf.sPts.filter(_.x(dim) < x), leaf.sPts.filter(_.x(dim) >= x),
        leaf.tPts.filter(p => p.x(dim) - e < x), leaf.tPts.filter(p => p.x(dim) + e >= x))
      else (
        leaf.sPts.filter(p => p.x(dim) - e < x), leaf.sPts.filter(p => p.x(dim) + e >= x),
        leaf.tPts.filter(_.x(dim) < x), leaf.tPts.filter(_.x(dim) >= x))
    val routeBy: WPair => Double = if (duplicateT) _.s(dim) else _.t(dim)
    val (pL, pR) = leaf.pairs.partition(p => routeBy(p) < x)

    val ls = new Slot; val rs = new Slot
    leaf.slot.node = new MInner(dim, x, duplicateT, ls, rs)
    val childL = newLeaf(ls, regL, sL, tL, pL)
    (childL, newLeaf(rs, regR, sR, tR, pR))
  }

  // ---------------------------------------------------------------------
  // best_split (Algorithm 2)
  // ---------------------------------------------------------------------

  private def bestSplit(leaf: Leaf, band: BandSpec, cfg: RecPartConfig,
                        k: Double, minDup: Double): Option[Candidate] = {
    if (oneBucketMode(leaf, band)) bestGridIncrement(leaf, cfg, k, minDup)
    else {
      val regular = bestRegularSplit(leaf, band, cfg, k, minDup)
      if (!cfg.gridFallback) regular
      else {
        // Optional extension (OFF by default — the paper grid-partitions
        // only small leaves): also offer the internal-1-Bucket step.
        // Arbitration between the two MECHANISMS is by net variance
        // reduction with a strong bias toward recursion (grid only wins
        // on a 4x ΔVar advantage): the ratio score is blind to leaves
        // whose sampled split candidates cannot separate a heavy output
        // clique (common in high d, where the clique leaf holds almost
        // no input samples) — there the best recursive split is a
        // high-ratio sliver while the grid step removes orders of
        // magnitude more variance. A leaf in grid mode may later be
        // regular-split (children restart at 1x1), so an early grid
        // switch cannot freeze a heavy leaf. The chosen option keeps its
        // own ΔVar/ΔDup ratio as the cross-leaf priority. Enabling this
        // for RecPart-S would mask the reverse-Pareto weakness that
        // Table 9 demonstrates, so benches enable it only for full
        // RecPart.
        val grid = bestGridIncrement(leaf, cfg, k, minDup)
        (regular, grid) match {
          case (Some(r), Some(g)) => Some(if (g.dVar > 4 * r.dVar) g else r)
          case (r, g) => r.orElse(g)
        }
      }
    }
  }

  /** A leaf switches to internal 1-Bucket partitioning when it is small
    * (below 2ε) in every dimension, or — degenerate input — when no
    * dimension offers two distinct sample values to split between (all
    * tuples then join with each other, the Cartesian-product regime).
    */
  private def oneBucketMode(leaf: Leaf, band: BandSpec): Boolean = {
    if (leaf.region.smallEverywhere(band)) return true
    val d = band.d
    var dim = 0
    while (dim < d) {
      if (!leaf.region.smallInDim(dim, band)) {
        val vals = distinctSorted(leaf, dim)
        if (vals.length >= 2) return false
      }
      dim += 1
    }
    true
  }

  private def distinctSorted(leaf: Leaf, dim: Int): Array[Double] = {
    val b = new ArrayBuffer[Double](leaf.sPts.length + leaf.tPts.length)
    leaf.sPts.foreach(p => b += p.x(dim))
    leaf.tPts.foreach(p => b += p.x(dim))
    b.distinct.sorted.toArray
  }

  private def score(varReduction: Double, dup: Double, minDup: Double): Double =
    if (varReduction <= 0) 0.0
    else varReduction / math.max(dup, minDup)

  private def bestGridIncrement(leaf: Leaf, cfg: RecPartConfig,
                                k: Double, minDup: Double): Option[Candidate] = {
    val lm = cfg.costModel.loadModel
    val cur = leaf.sumSq(leaf.r, leaf.c, lm)
    val varRow = k * (cur - leaf.sumSq(leaf.r + 1, leaf.c, lm))
    val varCol = k * (cur - leaf.sumSq(leaf.r, leaf.c + 1, lm))
    val sRow = score(varRow, leaf.tW, minDup) // extra row duplicates T once more
    val sCol = score(varCol, leaf.sW, minDup) // extra column duplicates S once more
    if (sRow <= 0 && sCol <= 0) None
    else if (sRow >= sCol) Some(Candidate(sRow, varRow, IncRow))
    else Some(Candidate(sCol, varCol, IncCol))
  }

  private def bestRegularSplit(leaf: Leaf, band: BandSpec, cfg: RecPartConfig,
                               k: Double, minDup: Double): Option[Candidate] = {
    val lm = cfg.costModel.loadModel
    // Relative duplication floor: charging a split less than 2% of the
    // leaf's own input makes sliver splits (high ratio, negligible ΔVar)
    // outrank the load-relevant splits of the same leaf at our sample
    // scale; see DESIGN.md §6.
    val floorDup = math.max(minDup, 0.02 * (leaf.sW + leaf.tW))
    val curSq = leaf.sumSq(1, 1, lm)
    var bestScore = 0.0
    var best: Option[Candidate] = None
    def consider(dVar: Double, dup: Double, dim: Int, x: Double, duplicateT: Boolean): Unit = {
      val sc = score(dVar, dup, floorDup)
      if (sc > bestScore) {
        bestScore = sc
        best = Some(Candidate(sc, dVar, RegularSplit(dim, x, duplicateT)))
      }
    }

    val d = band.d
    var dim = 0
    while (dim < d) {
      if (!leaf.region.smallInDim(dim, band)) {
        val e = band.eps(dim)
        val (sVals, sPref) = sortedPrefix(leaf.sPts, dim)
        val (tVals, tPref) = sortedPrefix(leaf.tPts, dim)
        val (oSVals, oSPref) = sortedPairPrefix(leaf.pairs, dim, useS = true)
        val (oTVals, oTPref) = sortedPairPrefix(leaf.pairs, dim, useS = false)
        val cand = distinctSorted(leaf, dim)
        var i = 0
        while (i < cand.length - 1) {
          val x = (cand(i) + cand(i + 1)) / 2
          // T-split: partition S at x, duplicate T within ε of x.
          locally {
            val sL = weightBelow(sVals, sPref, x)
            val sR = leaf.sW - sL
            val tL = weightBelow(tVals, tPref, x + e)
            val tR = leaf.tW - weightBelow(tVals, tPref, x - e)
            val oL = weightBelow(oSVals, oSPref, x)
            val oR = leaf.oW - oL
            val l1 = lm.load(sL + tL, oL)
            val l2 = lm.load(sR + tR, oR)
            consider(k * (curSq - l1 * l1 - l2 * l2), tL + tR - leaf.tW, dim, x, duplicateT = true)
          }
          // S-split: partition T at x, duplicate S within ε of x.
          if (cfg.symmetric) {
            val tL = weightBelow(tVals, tPref, x)
            val tR = leaf.tW - tL
            val sL = weightBelow(sVals, sPref, x + e)
            val sR = leaf.sW - weightBelow(sVals, sPref, x - e)
            val oL = weightBelow(oTVals, oTPref, x)
            val oR = leaf.oW - oL
            val l1 = lm.load(sL + tL, oL)
            val l2 = lm.load(sR + tR, oR)
            consider(k * (curSq - l1 * l1 - l2 * l2), sL + sR - leaf.sW, dim, x, duplicateT = false)
          }
          i += 1
        }
      }
      dim += 1
    }
    best
  }

  private def sortedPrefix(pts: Array[WPoint], dim: Int): (Array[Double], Array[Double]) = {
    val idx = pts.indices.toArray.sortBy(i => pts(i).x(dim))
    val vals = idx.map(i => pts(i).x(dim))
    val pref = new Array[Double](vals.length + 1)
    var i = 0
    while (i < vals.length) { pref(i + 1) = pref(i) + pts(idx(i)).weight; i += 1 }
    (vals, pref)
  }

  private def sortedPairPrefix(pairs: Array[WPair], dim: Int,
                               useS: Boolean): (Array[Double], Array[Double]) = {
    val coord: WPair => Double = if (useS) _.s(dim) else _.t(dim)
    val idx = pairs.indices.toArray.sortBy(i => coord(pairs(i)))
    val vals = idx.map(i => coord(pairs(i)))
    val pref = new Array[Double](vals.length + 1)
    var i = 0
    while (i < vals.length) { pref(i + 1) = pref(i) + pairs(idx(i)).weight; i += 1 }
    (vals, pref)
  }

  /** Σ of weights of entries with value < x. */
  private def weightBelow(vals: Array[Double], pref: Array[Double], x: Double): Double =
    pref(LocalJoin.lowerBound(vals, x))

  // ---------------------------------------------------------------------
  // Per-iteration estimates, termination bookkeeping, materialization
  // ---------------------------------------------------------------------

  /** Estimates after `iter` iterations; `input0` = |S|+|T| and `l0` is
    * the max-load lower bound L0, both from the sample.
    */
  private def snapshot(leaves: Iterable[Leaf], input0: Double, l0: Double,
                       cfg: RecPartConfig, iter: Int): IterStats = {
    val in = ArrayBuffer.empty[Double]
    val out = ArrayBuffer.empty[Double]
    var estI = 0.0
    for (l <- leaves) {
      estI += l.inputEst
      l.addSubs(in, out)
    }
    val sched = Lpt.schedule(in.toArray, out.toArray, cfg.w, cfg.costModel.loadModel)
    val (im, om, lmX) = (sched.in(sched.top), sched.out(sched.top), sched.load(sched.top))
    val dupOH = if (input0 > 0) (estI - input0) / input0 else 0.0
    val loadOH = if (l0 > 0) (lmX - l0) / l0 else 0.0
    val predicted = cfg.costModel.predict(estI, im, om)
    val objective = cfg.termination match {
      case Termination.Applied     => predicted
      case Termination.Theoretical => math.max(dupOH, loadOH)
    }
    IterStats(iter, in.length, estI, im, om, lmX, dupOH, loadOH,
      predicted, objective)
  }

  private def materialize(rootSlot: Slot, band: BandSpec, cfg: RecPartConfig): TreePartitioning = {
    val in = ArrayBuffer.empty[Double]
    val out = ArrayBuffer.empty[Double]
    def build(slot: Slot): SplitNode = slot.node match {
      case inner: MInner =>
        InnerNode(inner.dim, inner.x, inner.duplicateT, build(inner.left), build(inner.right))
      case ml: MLeaf =>
        val l = ml.leaf
        val node = LeafNode(l.id, l.r, l.c, in.length)
        l.addSubs(in, out)
        node
    }
    val root = build(rootSlot)
    val pidWorker = Lpt.schedule(in.toArray, out.toArray, cfg.w, cfg.costModel.loadModel).worker
    TreePartitioning(root, band, pidWorker, cfg.w)
  }
}
