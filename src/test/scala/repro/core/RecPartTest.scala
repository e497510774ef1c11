package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RecPartTest extends AnyFunSuite {

  /** Build a JoinSample that contains the *entire* input (weight 1) —
    * the optimizer then works with exact statistics.
    */
  private def fullSample(s: Seq[Double], t: Seq[Double], band: BandSpec): JoinSample =
    fullSampleN(s.map(v => Array(v)), t.map(v => Array(v)), band)

  /** As `Samples.draw` weights a sample: each side's points share one
    * weight and each pair weighs their product.
    */
  private def fullSampleN(s: Seq[Array[Double]], t: Seq[Array[Double]], band: BandSpec,
                          sW: Double = 1.0, tW: Double = 1.0): JoinSample = {
    val sp = s.map(WPoint(_, sW)).toArray
    val tp = t.map(WPoint(_, tW)).toArray
    val pairs = for {
      a <- sp; b <- tp if band.matches(a.x, b.x)
    } yield WPair(a.x, b.x, sW * tW)
    JoinSample(sp, tp, pairs, math.round(s.size * sW), math.round(t.size * tW),
      region(s ++ t, (s ++ t).head.length))
  }

  private def region(pts: Seq[Array[Double]], d: Int): Region =
    Region(Array.tabulate(d)(i => pts.map(_(i)).min), Array.tabulate(d)(i => pts.map(_(i)).max))

  test("Example 2: finds a zero-duplication, balanced partitioning") {
    val sV = Seq(1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 9.0, 10.0)
    val tV = Seq(1.0, 5.0, 6.0, 10.0)
    val band = BandSpec(Array(1.0))
    val sample = fullSample(sV, tV, band)
    val cfg = RecPartConfig(w = 2, symmetric = false)
    val res = RecPart.optimize(sample, Region(Array(1.0), Array(10.0)), band, cfg)
    assert(res.est.dupOverhead == 0.0, s"expected no duplication, got ${res.est}")
    assert(res.est.numPartitions >= 2)
    // splits must avoid T's ε-neighbourhoods: check no T value within ε of
    // any split boundary in the final tree
    def boundaries(n: SplitNode): Seq[Double] = n match {
      case InnerNode(_, x, _, l, r) => x +: (boundaries(l) ++ boundaries(r))
      case _ => Seq.empty
    }
    val part = res.partitioning
    // a T value at distance exactly ε from the boundary is not duplicated
    // (the left region A < x is open at x)
    for (x <- boundaries(part.root); tv <- tV)
      assert(math.abs(tv - x) >= 1.0, s"split $x duplicates T value $tv")
  }

  test("duplication (estI) is monotonically non-decreasing over iterations") {
    val rnd = new scala.util.Random(17)
    val s = Seq.fill(300)(Array(rnd.nextDouble() * 100, rnd.nextDouble() * 100))
    val t = Seq.fill(300)(Array(rnd.nextDouble() * 100, rnd.nextDouble() * 100))
    val band = BandSpec(Array(3.0, 3.0))
    val sample = fullSampleN(s, t, band)
    val res = RecPart.optimize(sample, region(s ++ t, 2), band,
      RecPartConfig(w = 8, symmetric = true))
    val is = res.trajectory.map(_.estI)
    assert(is.zip(is.tail).forall { case (a, b) => b >= a - 1e-6 },
      "estI decreased during tree growth")
  }

  test("load overhead improves versus the single-partition start") {
    val rnd = new scala.util.Random(23)
    val s = Seq.fill(400)(Array(rnd.nextDouble() * 50))
    val t = Seq.fill(400)(Array(rnd.nextDouble() * 50))
    val band = BandSpec(Array(0.5))
    val sample = fullSampleN(s, t, band)
    val res = RecPart.optimize(sample, region(s ++ t, 1), band,
      RecPartConfig(w = 4, symmetric = false))
    assert(res.est.loadOverhead < res.trajectory.head.loadOverhead)
  }

  test("w=1 performs no splits (variance is identically zero)") {
    val s = Seq(1.0, 2.0, 3.0, 4.0)
    val band = BandSpec(Array(0.5))
    val sample = fullSample(s, s, band)
    val res = RecPart.optimize(sample, Region(Array(1.0), Array(4.0)), band,
      RecPartConfig(w = 1))
    assert(res.iterations == 0)
    assert(res.est.numPartitions == 1)
  }

  test("small region switches to internal 1-Bucket partitioning") {
    val rnd = new scala.util.Random(31)
    // region extent 1.0 < 2ε = 4 → small everywhere from the start
    val s = Seq.fill(200)(Array(rnd.nextDouble()))
    val t = Seq.fill(200)(Array(rnd.nextDouble()))
    val band = BandSpec(Array(2.0))
    val sample = fullSampleN(s, t, band)
    val res = RecPart.optimize(sample, Region(Array(0.0), Array(1.0)), band,
      RecPartConfig(w = 6, symmetric = false))
    res.partitioning.root match {
      case l: LeafNode => assert(l.r * l.c > 1, "expected internal 1-Bucket growth")
      case _ => fail("small root must stay a leaf")
    }
    assert(res.est.numPartitions > 1)
  }

  test("degenerate single-value input falls back to 1-Bucket") {
    val s = Seq.fill(100)(Array(7.0))
    val t = Seq.fill(100)(Array(7.0))
    val band = BandSpec(Array(0.0)) // equi-join, region never 'small'
    val sample = fullSampleN(s, t, band)
    val res = RecPart.optimize(sample, Region(Array(7.0), Array(7.0)), band,
      RecPartConfig(w = 4))
    res.partitioning.root match {
      case l: LeafNode => assert(l.r * l.c > 1)
      case _ => fail("single-value root must stay a leaf")
    }
  }

  test("symmetric partitioning wins on reversed density (§4.2 example)") {
    val sV = Seq(21.0, 25.0, 26.0, 30.0)
    val tV = Seq(21.0, 22.0, 23.0, 25.0, 26.0, 28.0, 29.0, 30.0)
    // scale up weights to make the effect visible in load terms
    val band = BandSpec(Array(1.0))
    def bigSample(rep: Int): JoinSample = {
      val s = Seq.fill(rep)(sV).flatten
      val t = Seq.fill(rep)(tV).flatten
      fullSample(s, t, band)
    }
    val sample = bigSample(30)
    val reg = Region(Array(21.0), Array(30.0))
    val asym = RecPart.optimize(sample, reg, band, RecPartConfig(2, symmetric = false))
    val sym = RecPart.optimize(sample, reg, band, RecPartConfig(2, symmetric = true))
    assert(sym.est.estI <= asym.est.estI)
    // the symmetric tree should achieve zero duplication by splitting T
    assert(sym.est.dupOverhead == 0.0)
  }

  test("theoretical termination tracks max{dupOH, loadOH} and stops") {
    val rnd = new scala.util.Random(41)
    val s = Seq.fill(300)(Array(math.pow(rnd.nextDouble(), 2) * 30))
    val t = Seq.fill(300)(Array(math.pow(rnd.nextDouble(), 2) * 30))
    val band = BandSpec(Array(0.3))
    val sample = fullSampleN(s, t, band)
    val res = RecPart.optimize(sample, region(s ++ t, 1), band,
      RecPartConfig(w = 4, termination = Termination.Theoretical))
    val objs = res.trajectory.map(_.objective)
    assert(res.est.objective == objs.min)
    assert(res.est.objective <= objs.head)
  }

  test("chosen iteration reproduces the best trajectory objective") {
    val rnd = new scala.util.Random(43)
    val s = Seq.fill(250)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val t = Seq.fill(250)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val band = BandSpec(Array(0.5, 0.5))
    val sample = fullSampleN(s, t, band)
    val res = RecPart.optimize(sample, region(s ++ t, 2), band, RecPartConfig(w = 6))
    assert(res.est.iter == res.chosenIteration)
    assert(res.est.objective == res.trajectory.map(_.objective).min)
  }

  test("optimizer is deterministic") {
    val rnd = new scala.util.Random(47)
    val s = Seq.fill(200)(Array(rnd.nextDouble() * 10))
    val t = Seq.fill(200)(Array(rnd.nextDouble() * 10))
    val band = BandSpec(Array(0.2))
    val sample = fullSampleN(s, t, band)
    val reg = region(s ++ t, 1)
    val a = RecPart.optimize(sample, reg, band, RecPartConfig(w = 5))
    val b = RecPart.optimize(sample, reg, band, RecPartConfig(w = 5))
    assert(a.est == b.est)
    assert(a.chosenIteration == b.chosenIteration)
  }

  test("partitioning is pinned on fixed full samples") {
    // Literal trees, worker maps and estimates: any change to split
    // scoring, tie-breaking, leaf numbering or winner selection shows up.
    def lattice(rnd: scala.util.Random, n: Int, d: Int, f: Double => Double): Seq[Array[Double]] =
      Seq.fill(n)(Array.fill(d)(math.round(f(rnd.nextDouble()) * 10) / 10.0))
    // `ran`: the iterations run; the cap is max(12·w, 80).
    def check(s: Seq[Array[Double]], t: Seq[Array[Double]], band: BandSpec, cfg: RecPartConfig,
              sW: Double = 1.0, tW: Double = 1.0)(
        root: SplitNode, pidWorker: Seq[Int], chosen: Int, ran: Int, est: IterStats): Unit = {
      val res = RecPart.optimize(fullSampleN(s, t, band, sW, tW), region(s ++ t, band.d), band, cfg)
      assert(res.partitioning.root == root)
      assert(res.partitioning.pidWorker.toSeq == pidWorker)
      assert(res.chosenIteration == chosen)
      assert(res.iterations == ran)
      assert(res.est == est)
    }

    // RecPart-S, applied rule: the winner is iteration 2; the loop stops
    // after 7 (its cap is 80).
    val rndA = new scala.util.Random(11)
    check(lattice(rndA, 40, 2, _ * 10), lattice(rndA, 40, 2, _ * 10), BandSpec(Array(0.8, 0.8)),
      RecPartConfig(3, symmetric = false))(
      InnerNode(0, 6.800000000000001, true,
        InnerNode(1, 4.800000000000001, true, LeafNode(3, 1, 1, 0), LeafNode(4, 1, 1, 1)),
        LeafNode(2, 1, 1, 2)),
      Seq(1, 0, 2), 2, 7,
      IterStats(2, 3, 84.0, 30.0, 17.0, 137.0, 0.05, 0.15126050420168066, 221.0, 221.0))

    // Symmetric RecPart with the grid fallback: an output clique at (1, 1)
    // ends in a 2x2 grid leaf; S-splits and T-splits both occur. A later
    // split of a grid leaf may drop its copies, so the stop's bound leaves
    // them out, stays below the best, and the loop runs to its cap of 80.
    val rndB = new scala.util.Random(7)
    def clique() = Seq.fill(20)(Array(1.0, 1.0)) ++ Seq(Array(1.3, 1.2)) ++ lattice(rndB, 12, 2, _ * 10)
    check(clique(), clique(), BandSpec(Array(0.5, 0.5)),
      RecPartConfig(4, symmetric = true, gridFallback = true))(
      InnerNode(0, 1.9, true,
        InnerNode(1, 2.8000000000000003, true, LeafNode(3, 2, 2, 0), LeafNode(4, 1, 1, 4)),
        InnerNode(1, 5.9, false,
          InnerNode(0, 6.55, true, LeafNode(7, 1, 1, 5), LeafNode(8, 1, 1, 6)),
          LeafNode(6, 1, 1, 7))),
      Seq(0, 1, 2, 3, 3, 1, 2, 0), 8, 80,
      IterStats(8, 8, 108.0, 31.0, 111.25, 235.25, 0.6363636363636364, 0.3328611898016997,
        343.25, 343.25))

    // Theoretical rule: stops after 17 iterations, the winner is iteration 5.
    val rndC = new scala.util.Random(13)
    check(lattice(rndC, 20, 1, u => u * u * 30), lattice(rndC, 20, 1, u => u * u * 30),
      BandSpec(Array(0.3)), RecPartConfig(4, termination = Termination.Theoretical))(
      InnerNode(0, 9.0, true,
        InnerNode(0, 1.55, true, LeafNode(3, 1, 1, 0),
          InnerNode(0, 4.9, true, LeafNode(7, 1, 1, 1), LeafNode(8, 1, 1, 2))),
        InnerNode(0, 20.85, true, LeafNode(5, 1, 1, 3),
          InnerNode(0, 25.6, true, LeafNode(9, 1, 1, 4), LeafNode(10, 1, 1, 5)))),
      Seq(0, 2, 3, 1, 2, 3), 5, 17,
      IterStats(5, 6, 40.0, 11.0, 2.0, 46.0, 0.0, 0.045454545454545456, 86.0,
        0.045454545454545456))

    // Symmetric RecPart with the grid fallback in d = 3, each side with its
    // own non-integer weight: an output clique at (2, 2, 2) ends in a 2x4
    // grid leaf; the winner is iteration 20 of 108.
    val rndD = new scala.util.Random(29)
    def cliqueD() = Seq.fill(30)(Array(2.0, 2.0, 2.0)) ++ lattice(rndD, 50, 3, u => u * u * 10)
    check(cliqueD(), cliqueD(), BandSpec(Array(0.6, 0.6, 0.6)),
      RecPartConfig(9, symmetric = true, gridFallback = true), sW = 2.7, tW = 3.9)(
      InnerNode(1, 2.6500000000000004, false,
        InnerNode(0, 2.6500000000000004, true,
          InnerNode(2, 3.0, false,
            InnerNode(1, 0.85, false, LeafNode(7, 1, 1, 0),
              InnerNode(0, 0.75, false, LeafNode(9, 1, 1, 1), LeafNode(10, 2, 4, 2))),
            LeafNode(6, 1, 1, 10)),
          LeafNode(4, 1, 1, 11)),
        InnerNode(0, 3.65, false, LeafNode(11, 1, 1, 12), LeafNode(12, 1, 1, 13))),
      Seq(8, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8), 20, 108,
      IterStats(20, 14, 930.9000000000002, 74.40000000000003, 1184.6250000000018,
        1482.225000000002, 0.7630681818181823, 0.14072881660295983, 2413.1250000000023,
        2413.1250000000023))

    // A score tie: the root splits between two translated copies of one
    // integer-lattice cluster, so its children 1 and 2 score exactly
    // equal. The child made first splits first (into 3 and 4, before 2
    // into 5 and 6), and so on down; the winner is iteration 5 of 8.
    val rndE = new scala.util.Random(5)
    def twoCopies() = {
      val c = Seq.fill(30)(Array.fill(2)(rndE.nextInt(8).toDouble))
      c ++ c.map(p => Array(p(0) + 100, p(1)))
    }
    check(twoCopies(), twoCopies(), BandSpec(Array(1.0, 1.0)), RecPartConfig(4, symmetric = false))(
      InnerNode(0, 53.5, true,
        InnerNode(0, 2.5, true, LeafNode(3, 1, 1, 0),
          InnerNode(1, 1.5, true, LeafNode(7, 1, 1, 1), LeafNode(8, 1, 1, 2))),
        InnerNode(0, 102.5, true, LeafNode(5, 1, 1, 3),
          InnerNode(1, 1.5, true, LeafNode(9, 1, 1, 4), LeafNode(10, 1, 1, 5)))),
      Seq(2, 2, 0, 3, 3, 1), 5, 8,
      IterStats(5, 6, 130.0, 36.0, 48.0, 192.0, 0.08333333333333333, 0.1394658753709199,
        322.0, 322.0))
  }

  test("the applied rule stops once a lower bound on every later iteration exceeds the best") {
    // β0 + β1·I + (β2·I + β3·Ô)/w bounds an iteration's objective from
    // below. With no 1-Bucket leaf (none is small here, and the grid
    // fallback is off) I is the live leaves' own S and T weight, below
    // which no later iteration's I falls; the loop stops at the first
    // iteration where the bound exceeds the best objective so far.
    val rnd = new scala.util.Random(67)
    val s = Seq.fill(200)(Array(rnd.nextDouble() * 20, math.pow(rnd.nextDouble(), 3) * 20))
    val t = Seq.fill(200)(Array(rnd.nextDouble() * 20, math.pow(rnd.nextDouble(), 3) * 20))
    val band = BandSpec(Array(0.4, 0.4))
    val sample = fullSampleN(s, t, band)
    for (model <- Seq(CostModel.default, CostModel(5, 0.5, 3, 2)); w <- Seq(4, 12)) {
      val res = RecPart.optimize(sample, region(s ++ t, 2), band, RecPartConfig(w, costModel = model))
      def bound(st: IterStats) = model.beta0 + model.beta1 * st.estI +
        (model.beta2 * st.estI + model.beta3 * sample.outputEstimate) / w
      val best = res.trajectory.scanLeft(Double.PositiveInfinity)((b, st) => math.min(b, st.objective)).tail
      val exceeds = res.trajectory.indices.map(i => bound(res.trajectory(i)) > best(i) * (1 + 1e-9))
      assert(res.iterations < math.max(12 * w, 80), s"$model, w = $w")
      assert(exceeds.indexOf(true) == res.iterations, s"$model, w = $w")
      for (st <- res.trajectory) assert(st.objective >= bound(st) * (1 - 1e-9), s"$model, w = $w: $st")
    }
  }

  test("property: the stop keeps the winner of a run to the cap, split grid leaves included") {
    // β1 = −1e-300 turns the stop off without changing a score or an
    // objective (β1·I vanishes next to β2·Im), so that run is the reference.
    val rnd = new scala.util.Random(71)
    for (c <- 0 until 150) {
      val d = 1 + rnd.nextInt(3)
      val centre = Array.fill(d)(rnd.nextDouble() * 10)
      def pts(n: Int) = Seq.fill(n)(
        if (rnd.nextInt(3) == 0) centre.map(_ + rnd.nextDouble() * 0.1)
        else Array.fill(d)(math.round(math.pow(rnd.nextDouble(), 2) * 100) / 10.0))
      val band = BandSpec(Array.fill(d)(0.2 + rnd.nextDouble()))
      val (s, t) = (pts(20 + rnd.nextInt(100)), pts(20 + rnd.nextInt(100)))
      val sample = fullSampleN(s, t, band, 1 + rnd.nextDouble(), 1 + rnd.nextDouble())
      val cfg = RecPartConfig(2 + rnd.nextInt(30), symmetric = rnd.nextBoolean(),
        costModel = CostModel(0, 0, 4, 1), gridFallback = rnd.nextInt(4) > 0)
      val stopped = RecPart.optimize(sample, region(s ++ t, d), band, cfg)
      val full = RecPart.optimize(sample, region(s ++ t, d), band,
        cfg.copy(costModel = CostModel(0, -1e-300, 4, 1)))
      assert(stopped.partitioning.root == full.partitioning.root, s"case $c")
      assert(stopped.partitioning.pidWorker.toSeq == full.partitioning.pidWorker.toSeq, s"case $c")
      assert(stopped.chosenIteration == full.chosenIteration, s"case $c")
      assert(stopped.trajectory == full.trajectory.take(stopped.iterations + 1), s"case $c")
    }
  }

  test("the bound never stops the theoretical rule, nor a model with a negative β") {
    val rndA = new scala.util.Random(11)
    def lattice(n: Int) = Seq.fill(n)(Array.fill(2)(math.round(rndA.nextDouble() * 100) / 10.0))
    val (s, t) = (lattice(40), lattice(40))
    val band = BandSpec(Array(0.8, 0.8))
    val sample = fullSampleN(s, t, band)
    val reg = region(s ++ t, 2)
    // The pinned RecPart-S case: with β1 = −1 it runs to its cap of 80.
    val negative = RecPart.optimize(sample, reg, band,
      RecPartConfig(3, symmetric = false, costModel = CostModel(0, -1, 4, 1)))
    assert(negative.iterations == 80)
    // The theoretical rule stops at the first iteration whose duplication
    // overhead exceeds the lowest load overhead so far, and not before.
    val theo = RecPart.optimize(sample, reg, band,
      RecPartConfig(3, symmetric = false, termination = Termination.Theoretical))
    val traj = theo.trajectory
    val minLoad = traj.scanLeft(Double.PositiveInfinity)((m, st) => math.min(m, st.loadOverhead)).tail
    assert(traj.indices.indexWhere(i => traj(i).dupOverhead > minLoad(i)) == theo.iterations)
  }

  test("the chosen estimate of I equals the weighted input the partitioning routes") {
    // Ties the optimizer's per-leaf sample lists to SplitTree's routing:
    // est.estI = Σ w·|assignS| + Σ w·|assignT| over the sample.
    val rnd = new scala.util.Random(61)
    for (c <- 0 until 48) {
      val d = 1 + c % 3
      val band = BandSpec(Array.fill(d)(if (rnd.nextInt(3) == 0) 0.0 else 0.2 + rnd.nextDouble()))
      def pts(n: Int) = Seq.fill(n)(Array.fill(d)(math.round(math.pow(rnd.nextDouble(), 2) * 100) / 10.0))
      val (s, t) = (pts(30 + rnd.nextInt(120)), pts(30 + rnd.nextInt(120)))
      val (sW, tW) = (1 + rnd.nextDouble() * 9, 1 + rnd.nextDouble() * 9)
      val cfg = RecPartConfig(2 + rnd.nextInt(30), symmetric = c % 2 == 0,
        gridFallback = c / 2 % 2 == 0,
        termination = if (c / 4 % 2 == 0) Termination.Applied else Termination.Theoretical)
      val res = RecPart.optimize(fullSampleN(s, t, band, sW, tW), region(s ++ t, d), band, cfg)
      val part = res.partitioning
      val routed = s.indices.map(i => sW * part.assignS(s(i), i.toLong).length).sum +
        t.indices.map(i => tW * part.assignT(t(i), i.toLong).length).sum
      assert(math.abs(routed - res.est.estI) <= 1e-9 * routed, s"case $c: $cfg routed $routed, ${res.est}")
    }
  }

  test("resulting partitioning obeys the exactly-once law") {
    val rnd = new scala.util.Random(53)
    val s = Seq.fill(150)(Array(rnd.nextDouble() * 20, rnd.nextDouble() * 20))
    val t = Seq.fill(150)(Array(rnd.nextDouble() * 20, rnd.nextDouble() * 20))
    val band = BandSpec(Array(1.0, 1.0))
    val sample = fullSampleN(s, t, band)
    for (sym <- Seq(true, false)) {
      val res = RecPart.optimize(sample, region(s ++ t, 2), band,
        RecPartConfig(w = 5, symmetric = sym))
      val sTup = s.zipWithIndex.map { case (x, i) => (i.toLong, x) }
      val tTup = t.zipWithIndex.map { case (x, i) => (i.toLong + 1000, x) }
      PartitionLaws.checkAll(res.partitioning, band, sTup, tTup)
    }
  }

  test("variance prefactor is (w-1)/w^2") {
    assert(RecPart.variancePrefactor(2) == 0.25)
    assert(RecPart.variancePrefactor(1) == 0.0)
    assert(math.abs(RecPart.variancePrefactor(30) - 29.0 / 900) < 1e-12)
  }

  test("more workers yield at least as many partitions") {
    val rnd = new scala.util.Random(59)
    val s = Seq.fill(500)(Array(rnd.nextDouble() * 100))
    val t = Seq.fill(500)(Array(rnd.nextDouble() * 100))
    val band = BandSpec(Array(0.5))
    val sample = fullSampleN(s, t, band)
    val reg = region(s ++ t, 1)
    val p4 = RecPart.optimize(sample, reg, band, RecPartConfig(w = 4)).est.numPartitions
    val p16 = RecPart.optimize(sample, reg, band, RecPartConfig(w = 16)).est.numPartitions
    assert(p16 >= p4)
  }
}
