package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable.ArrayBuffer

/** Which rule ends the repeat-loop of Algorithm 1 (§4.2). */
sealed trait Termination
object Termination {
  /** Cost-model driven: winner minimizes `M`. Instead of the paper's
    * windowed early stop, the loop stops once no later iteration can beat
    * the best one (DESIGN.md §6).
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

  /** An attribute list: item `idx(j)` (a sample point or output pair)
    * with weight `weight(j)` and coordinate `key(j)`, ascending on the
    * coordinate.
    */
  private final class Attr(val idx: Array[Int], val key: Array[Double], val weight: Array[Double]) {
    def length: Int = idx.length

    /** The entries whose item has `keep(item) == side`, in order. */
    def filter(keep: Array[Boolean], side: Boolean): Attr = {
      var n = 0
      var j = 0
      while (j < idx.length) { if (keep(idx(j)) == side) n += 1; j += 1 }
      val (i2, k2, w2) = (new Array[Int](n), new Array[Double](n), new Array[Double](n))
      n = 0; j = 0
      while (j < idx.length) {
        if (keep(idx(j)) == side) { i2(n) = idx(j); k2(n) = key(j); w2(n) = weight(j); n += 1 }
        j += 1
      }
      new Attr(i2, k2, w2)
    }
  }

  private object Attr {
    /** The list of `items` with weights `weight` on coordinate `coord`,
      * by a stable sort.
      */
    def sorted[A](items: Array[A], coord: A => Double, weight: A => Double): Attr = {
      val key = items.map(coord)
      val idx = IndexSort.byKey(key)
      new Attr(idx, idx.map(key), idx.map(i => weight(items(i))))
    }
  }

  /** One side of a leaf's sample, sorted on each dimension once at the
    * root; children inherit the order through stable filters (SLIQ /
    * SPRINT attribute lists). `pts(dim)`: the side's points (of which the
    * root has `nPts`) ascending on `dim`; `pairs(dim)`: the output pairs
    * (of which the root has `nPairs`), ascending on this side's coordinate
    * `off + dim` of the joined point s ++ t.
    */
  private final class Side(val pts: Array[Attr], val pairs: Array[Attr], val off: Int,
                           nPts: Int, nPairs: Int) {
    val weight: Double = sum(pts(0).weight)

    /** The children's lists for a split at x on `dim`: points go to each
      * child within `reach`, pairs to the left one iff `pairLeft(pair)`.
      */
    def split(dim: Int, x: Double, reach: Double, pairLeft: Array[Boolean]): (Side, Side) = {
      val byDim = pts(dim)
      val (left, right) = (new Array[Boolean](nPts), new Array[Boolean](nPts))
      for (j <- 0 until byDim.length) {
        left(byDim.idx(j)) = SplitTree.reachesLeft(byDim.key(j), x, reach)
        right(byDim.idx(j)) = SplitTree.reachesRight(byDim.key(j), x, reach)
      }
      def child(in: Array[Boolean], side: Boolean) =
        new Side(pts.map(_.filter(in, true)), pairs.map(_.filter(pairLeft, side)), off, nPts, nPairs)
      (child(left, true), child(right, false))
    }

    /** Per output pair, whether its coordinate `off + dim` is below x. */
    def pairsBelow(dim: Int, x: Double): Array[Boolean] = {
      val below = new Array[Boolean](nPairs)
      val byDim = pairs(dim)
      for (j <- 0 until byDim.length) below(byDim.idx(j)) = byDim.key(j) < x
      below
    }
  }

  /** Σ a, added in order from 0.0. */
  private def sum(a: Array[Double]): Double = {
    var acc = 0.0
    var j = 0
    while (j < a.length) { acc += a(j); j += 1 }
    acc
  }

  /** A node of the split tree. It is a leaf of the partitioning, with an
    * internal `r × c` 1-Bucket grid, until it is split; it then records the
    * split and its two children and is the inner node over them.
    */
  private final class Leaf(val id: Int, val region: Region, val s: Side, val t: Side) {
    var r: Int = 1
    var c: Int = 1
    var best: Option[Candidate] = None
    var children: Option[(RegularSplit, Leaf, Leaf)] = None

    val sW: Double = s.weight
    val tW: Double = t.weight
    val oW: Double = sum(s.pairs(0).weight)

    /** The best split's score; 0 without one. */
    def score: Double = best.fold(0.0)(_.score)

    /** Σ l² over the rr·cc internal 1-Bucket sub-partitions. */
    def sumSq(rr: Int, cc: Int, model: CostModel): Double = {
      val l = model.load(sW / rr + tW / cc, oW / (rr.toDouble * cc))
      rr.toDouble * cc * l * l
    }

    /** Estimated shuffled input of this leaf incl. internal duplication. */
    def inputEst: Double = c * sW + r * tW

    /** Write the input and output of each of the r·c sub-partitions from
      * index `at` on; returns the index after them.
      */
    def addSubs(in: Array[Double], out: Array[Double], at: Int): Int = {
      java.util.Arrays.fill(in, at, at + r * c, sW / r + tW / c)
      java.util.Arrays.fill(out, at, at + r * c, oW / (r.toDouble * c))
      at + r * c
    }
  }

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
    val k = variancePrefactor(cfg.w)
    val minDup = dupFloor(sample)
    // The live leaves in the order they were made: Algorithm 1's queue.
    val live = ArrayBuffer.empty[Leaf]
    var nextId = 0
    def rescore(l: Leaf): Unit = l.best = bestSplit(l, band, cfg, k, minDup)
    def newLeaf(region: Region, s: Side, t: Side): Leaf = {
      val l = new Leaf(nextId, region, s, t)
      nextId += 1
      rescore(l)
      live += l
      l
    }

    val d = band.d
    def rootSide(pts: Array[WPoint], off: Int) = new Side( // the only sorts; stable
      Array.tabulate(d)(dim => Attr.sorted[WPoint](pts, _.x(dim), _.weight)),
      Array.tabulate(d)(dim => Attr.sorted[WPair](sample.pairs,
        p => if (off == 0) p.s(dim) else p.t(dim), _.weight)),
      off, pts.length, sample.pairs.length)
    val root = newLeaf(rootRegion, rootSide(sample.sPoints, 0), rootSide(sample.tPoints, d))

    val input0 = (sample.sCount + sample.tCount).toDouble
    val out0 = sample.outputEstimate
    val model = cfg.costModel
    val l0 = model.lowerBound(sample.sCount.toDouble, sample.tCount.toDouble, out0, cfg.w)
    // Under the applied rule, an iteration with input estimate I costs at
    // least β0 + β1·I + (β2·I + β3·Ô)/w: its top worker's load is at least
    // the average. No later iteration's I falls below Σ sW + tW over the
    // live leaves, so once the bound at that sum exceeds the best
    // objective no later iteration can win (DESIGN.md §6). The margin
    // absorbs the sums' rounding.
    val boundStops = cfg.termination == Termination.Applied &&
      model.beta1 >= 0 && model.beta2 >= 0 && model.beta3 >= 0
    def noLaterWin(best: Double): Boolean = boundStops && {
      var floorI = 0.0
      for (l <- live) floorI += l.sW + l.tW
      model.beta0 + model.beta1 * floorI + model.lowerBound(floorI, 0, out0, cfg.w) >
        best + 1e-9 * math.abs(best)
    }
    val traj = Vector.newBuilder[IterStats]
    var stats = snapshot(live, input0, l0, cfg, 0)
    traj += stats
    var best = stats
    var bestPart = materialize(root, band, cfg)
    var minLoadOH = stats.loadOverhead
    val cap = math.max(12 * cfg.w, 80) // repeat-loop iteration cap

    var done = false
    // Split the live leaf with the highest positive score (Algorithm 1
    // line 6); `live` is in the order leaves were made, so a tie goes to
    // the leaf made first.
    while (!done) live.iterator.filter(_.score > 0).maxByOption(_.score) match {
      case None => done = true
      case Some(leaf) =>
        leaf.best.get.split match {
          case sp: RegularSplit => live -= leaf; applyRegular(leaf, sp, band, newLeaf)
          case IncRow => leaf.r += 1; rescore(leaf)
          case IncCol => leaf.c += 1; rescore(leaf)
        }
        stats = snapshot(live, input0, l0, cfg, stats.iter + 1)
        traj += stats
        // Double.compare is a total order (NaN last); strict, so ties
        // keep the earlier iteration.
        if (java.lang.Double.compare(stats.objective, best.objective) < 0) {
          best = stats
          bestPart = materialize(root, band, cfg)
        }
        if (stats.loadOverhead < minLoadOH) minLoadOH = stats.loadOverhead
        // Duplication only grows; under the theoretical rule, once it
        // exceeds the best load overhead seen, no later iteration can
        // win.
        done = stats.iter >= cap || (cfg.termination == Termination.Theoretical &&
          stats.dupOverhead > minLoadOH) || noLaterWin(best.objective)
    }
    val trajectory = traj.result()
    RecPartResult(bestPart, trajectory.size - 1, best.iter, best, trajectory)
  }

  /** Exact per-dimension min/max over S ∪ T, from one Spark job without
    * a shuffle: the scan of `Samples.draw`, which returns the same region
    * as `JoinSample.region`, here with an empty reservoir. As SQL's
    * `min` / `max` order doubles, NaN is above every other value: a
    * bound's `hi` is NaN if any value is, its `lo` only if every value
    * is. When both inputs are empty there are no bounds; the region
    * degenerates to the origin. A null join attribute is rejected.
    */
  def exactBounds(s: DataFrame, t: DataFrame, dims: Seq[String]): Region =
    Samples.scan(Seq(s, t), dims, cap = 0, seed = 0L)._2

  /** `(w-1)/w²` — the prefactor of `V[P] = (w-1)/w² Σ l_p²` (§4.2). */
  def variancePrefactor(w: Int): Double = (w - 1).toDouble / (w.toDouble * w)

  /** Split `leaf` at `sp`: it becomes the inner node over two new leaves. */
  private def applyRegular(leaf: Leaf, sp: RegularSplit, band: BandSpec,
                           newLeaf: (Region, Side, Side) => Leaf): Unit = {
    val RegularSplit(dim, x, duplicateT) = sp
    val e = band.eps(dim)
    // Pairs follow the partitioned side's coordinate.
    val pairLeft = (if (duplicateT) leaf.s else leaf.t).pairsBelow(dim, x)
    val (sL, sR) = leaf.s.split(dim, x, if (duplicateT) 0.0 else e, pairLeft)
    val (tL, tR) = leaf.t.split(dim, x, if (duplicateT) e else 0.0, pairLeft)
    val (regL, regR) = leaf.region.split(dim, x)
    leaf.children = Some((sp, newLeaf(regL, sL, tL), newLeaf(regR, sR, tR)))
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
  private def oneBucketMode(leaf: Leaf, band: BandSpec): Boolean =
    leaf.region.smallEverywhere(band) || (0 until band.d).forall(dim =>
      leaf.region.smallInDim(dim, band) || distinctValues(leaf, dim).length < 2)

  /** The distinct (under `==`) values of the leaf's S and T samples on
    * `dim`, ascending, from one merge of their sorted lists.
    */
  private def distinctValues(leaf: Leaf, dim: Int): Array[Double] = {
    val (a, b) = (leaf.s.pts(dim), leaf.t.pts(dim))
    val out = new Array[Double](a.length + b.length)
    var i = 0; var j = 0; var n = 0
    while (i < a.length || j < b.length) {
      val v = // compare in the lists' sort order (NaN last), as `<=` does not
        if (j == b.length || i < a.length &&
            java.lang.Double.compare(a.key(i), b.key(j)) <= 0) { i += 1; a.key(i - 1) }
        else { j += 1; b.key(j - 1) }
      if (n == 0 || v != out(n - 1)) { out(n) = v; n += 1 }
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** Weight of an attribute list's entries whose key is below x, for rising x. */
  private final class Below(list: Attr) {
    private var j = 0
    private var acc = 0.0
    def apply(x: Double): Double = {
      while (j < list.length && list.key(j) < x) { acc += list.weight(j); j += 1 }
      acc
    }
  }

  private def score(varReduction: Double, dup: Double, minDup: Double): Double =
    if (varReduction <= 0) 0.0
    else varReduction / math.max(dup, minDup)

  private def bestGridIncrement(leaf: Leaf, cfg: RecPartConfig,
                                k: Double, minDup: Double): Option[Candidate] = {
    val model = cfg.costModel
    val cur = leaf.sumSq(leaf.r, leaf.c, model)
    val varRow = k * (cur - leaf.sumSq(leaf.r + 1, leaf.c, model))
    val varCol = k * (cur - leaf.sumSq(leaf.r, leaf.c + 1, model))
    val sRow = score(varRow, leaf.tW, minDup) // extra row duplicates T once more
    val sCol = score(varCol, leaf.sW, minDup) // extra column duplicates S once more
    if (sRow <= 0 && sCol <= 0) None
    else if (sRow >= sCol) Some(Candidate(sRow, varRow, IncRow))
    else Some(Candidate(sCol, varCol, IncCol))
  }

  private def bestRegularSplit(leaf: Leaf, band: BandSpec, cfg: RecPartConfig,
                               k: Double, minDup: Double): Option[Candidate] = {
    val model = cfg.costModel
    // Relative duplication floor: charging a split less than 2% of the
    // leaf's own input makes sliver splits (high ratio, negligible ΔVar)
    // outrank the load-relevant splits of the same leaf at our sample
    // scale; see DESIGN.md §6.
    val floorDup = math.max(minDup, 0.02 * (leaf.sW + leaf.tW))
    val curSq = leaf.sumSq(1, 1, model)
    var bestScore = 0.0
    var best: Option[Candidate] = None

    /** Scores the splits of `dim` that partition side `part` at x and copy
      * side `dup` within ε of x to both children, for x that only rise.
      */
    final class Role(part: Side, dup: Side, dim: Int, duplicateT: Boolean) {
      private val e = band.eps(dim)
      private val partLeft = new Below(part.pts(dim))
      private val dupLeft = new Below(dup.pts(dim))
      private val dupNotRight = new Below(dup.pts(dim))
      private val outLeft = new Below(part.pairs(dim))

      def consider(x: Double): Unit = {
        val pL = partLeft(x)
        val pR = part.weight - pL
        val dL = dupLeft(x + e)
        val dR = dup.weight - dupNotRight(x - e)
        val oL = outLeft(x)
        val oR = leaf.oW - oL
        val l1 = model.load(pL + dL, oL)
        val l2 = model.load(pR + dR, oR)
        val dVar = k * (curSq - l1 * l1 - l2 * l2)
        val sc = score(dVar, dL + dR - dup.weight, floorDup)
        if (sc > bestScore) {
          bestScore = sc
          best = Some(Candidate(sc, dVar, RegularSplit(dim, x, duplicateT)))
        }
      }
    }

    for (dim <- 0 until band.d if !leaf.region.smallInDim(dim, band)) {
      val tSplit = new Role(leaf.s, leaf.t, dim, duplicateT = true)
      val sSplit = new Role(leaf.t, leaf.s, dim, duplicateT = false)
      val vals = distinctValues(leaf, dim)
      for (i <- 0 until vals.length - 1) {
        val x = (vals(i) + vals(i + 1)) / 2
        // A NaN midpoint (NaN, or -Inf next to +Inf, in the sample) splits
        // nothing; skipping it keeps the bounds of `Below` rising.
        if (!x.isNaN) {
          tSplit.consider(x)
          if (cfg.symmetric) sSplit.consider(x)
        }
      }
    }
    best
  }

  // ---------------------------------------------------------------------
  // Per-iteration estimates, termination bookkeeping, materialization
  // ---------------------------------------------------------------------

  /** Estimates after `iter` iterations; `input0` = |S|+|T| and `l0` is
    * the max-load lower bound L0, both from the sample.
    */
  private def snapshot(leaves: Iterable[Leaf], input0: Double, l0: Double,
                       cfg: RecPartConfig, iter: Int): IterStats = {
    val (in, out) = subs(leaves)
    var estI = 0.0
    for (l <- leaves) estI += l.inputEst
    val sched = Lpt.schedule(in, out, cfg.w, cfg.costModel)
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

  /** The input and output of each sub-partition of `leaves`, in order. */
  private def subs(leaves: Iterable[Leaf]): (Array[Double], Array[Double]) = {
    val n = leaves.iterator.map(l => l.r * l.c).sum
    val (in, out) = (new Array[Double](n), new Array[Double](n))
    var at = 0
    for (l <- leaves) at = l.addSubs(in, out, at)
    (in, out)
  }

  private def materialize(root: Leaf, band: BandSpec, cfg: RecPartConfig): TreePartitioning = {
    val leaves = ArrayBuffer.empty[Leaf]
    var pids = 0
    def build(l: Leaf): SplitNode = l.children match {
      case Some((RegularSplit(dim, x, dupT), left, right)) =>
        InnerNode(dim, x, dupT, build(left), build(right))
      case None =>
        val node = LeafNode(l.id, l.r, l.c, pids)
        pids += l.r * l.c
        leaves += l
        node
    }
    val tree = build(root)
    val (in, out) = subs(leaves)
    val pidWorker = Lpt.schedule(in, out, cfg.w, cfg.costModel).worker
    TreePartitioning(tree, band, pidWorker, cfg.w)
  }
}
