package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class LptTest extends AnyFunSuite {

  /** Schedule partitions whose load is their input. */
  private def schedule(loads: Array[Double], w: Int): Lpt.Schedule =
    Lpt.schedule(loads, new Array[Double](loads.length), w, CostModel(0.0, 0.0, 1.0, 0.0))

  test("single worker receives everything") {
    val a = schedule(Array(1.0, 2.0, 3.0), 1).worker
    assert(a.forall(_ == 0))
  }

  test("equal loads spread evenly") {
    val a = schedule(Array.fill(6)(1.0), 3).worker
    assert(a.groupBy(identity).values.map(_.length).toSet == Set(2))
  }

  test("heaviest partition placed alone when possible") {
    // loads 4,1,1,1,1 on 2 workers: LPT puts 4 alone vs the four 1s
    val loads = Array(4.0, 1.0, 1.0, 1.0, 1.0)
    val a = schedule(loads, 2).worker
    val w = Array.fill(2)(0.0)
    loads.indices.foreach(i => w(a(i)) += loads(i))
    assert(w.max == 4.0)
  }

  test("maxLoad equals recomputed max") {
    val loads = Array(3.0, 1.0, 2.0, 2.0, 5.0)
    val sch = schedule(loads, 3)
    val w = Array.fill(3)(0.0)
    loads.indices.foreach(i => w(sch.worker(i)) += loads(i))
    assert(sch.load(sch.top) == w.max)
  }

  test("empty load list yields zero max load") {
    val sch = schedule(Array.empty, 4)
    assert(sch.load(sch.top) == 0.0)
  }

  test("deterministic for equal inputs") {
    val loads = Array(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(schedule(loads, 3).worker.sameElements(schedule(loads, 3).worker))
  }

  test("property: LPT within 4/3 of the lower bound") {
    // Graham's bound: LPT makespan <= (4/3 - 1/(3w)) * OPT and
    // OPT >= max(total/w, max element).
    val gen = Gen.listOfN(20, Gen.choose(0.1, 10.0))
    Props.hold(Prop.forAll(gen, Gen.choose(1, 8)) { (ls, w) =>
      val loads = ls.toArray
      val lb = math.max(loads.sum / w, loads.max)
      val sch = schedule(loads, w)
      sch.load(sch.top) <= (4.0 / 3.0) * lb + 1e-9
    })
  }

  test("property: every partition assigned exactly one worker in range") {
    val gen = Gen.listOfN(15, Gen.choose(0.0, 5.0))
    Props.hold(Prop.forAll(gen, Gen.choose(1, 6)) { (ls, w) =>
      val a = schedule(ls.toArray, w).worker
      a.length == ls.length && a.forall(x => x >= 0 && x < w)
    })
  }

  test("property: per-worker sums and the most loaded worker follow from the worker map") {
    val part = Gen.zip(Gen.choose(0.0, 50.0), Gen.choose(0.0, 500.0))
    Props.hold(Prop.forAll(Gen.choose(0, 25).flatMap(Gen.listOfN(_, part)), Gen.choose(1, 8)) {
      (ps, w) =>
        val (in, out) = (ps.map(_._1).toArray, ps.map(_._2).toArray)
        val load = CostModel.default
        val sch = Lpt.schedule(in, out, w, load)
        val (wIn, wOut, wLoad) = (new Array[Double](w), new Array[Double](w), new Array[Double](w))
        for (p <- in.indices) {
          val k = sch.worker(p)
          wIn(k) += in(p); wOut(k) += out(p); wLoad(k) += load.load(in(p), out(p))
        }
        val top = wLoad.indexOf(wLoad.max)
        sch.in.sameElements(wIn) && sch.out.sameElements(wOut) &&
          sch.load.sameElements(wLoad) && sch.top == top
    })
  }
}
