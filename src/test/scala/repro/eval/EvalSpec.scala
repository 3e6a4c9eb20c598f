package repro.eval

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{BenchTimeout, LocalAlgos}
import repro.graph.Datasets

/** Harness-level tests: timing, TLE capping, table formatting, dataset
  * statistics consistency.
  */
class EvalSpec extends AnyFunSuite {

  test("time measures and returns the value") {
    val t = Eval.time { Thread.sleep(5); 42 }
    assert(t.value == 42 && t.millis >= 4.0)
  }

  test("capped returns Right on completion") {
    val r = Eval.capped(10000L)(_ => Array(1L, 2L, 3L, 4L, 5L, 6L))
    assert(r.isRight && r.toOption.get.value.sum == 21)
  }

  test("capped returns Left(TLE) when the deadline fires") {
    val r = Eval.capped(0L) { dl =>
      while (System.nanoTime() <= dl) {}
      throw new BenchTimeout
    }
    assert(r == Left("TLE"))
  }

  test("capped returns Left(TLE) through a parallel LocalAlgos call") {
    val g = Eval.graphOf(Datasets.byKey("WN"))
    val delta = Datasets.DefaultDeltaSeconds
    assert(Eval.capped(0L)(dl => LocalAlgos.tbcPlusPlus(g, delta, dl)) == Left("TLE"))
    assert(Eval.capped(60000L)(dl => LocalAlgos.tbcPlusPlus(g, delta, dl)).isRight)
  }

  test("fmtMs renders both outcomes") {
    assert(Eval.fmtMs(Left("TLE")) == "TLE")
    assert(Eval.fmtMs(Right(Eval.Timed((), 12.34))) == "12.3")
  }

  test("pct sums to 100 for non-empty counts and 0 for empty") {
    assert(math.abs(Eval.pct(Array(1L, 2L, 3L, 4L, 5L, 6L)).sum - 100.0) < 1e-9)
    assert(Eval.pct(Array.fill(6)(0L)).sum == 0.0)
  }

  test("printTable aligns columns") {
    val out = collection.mutable.ArrayBuffer.empty[String]
    Eval.printTable(Seq("a", "bbbb"), Seq(Seq("xxx", "y")), out += _)
    assert(out.length == 3)
    assert(out.forall(_.length == out.head.length))
  }

  test("printTimingTable ends with the worker count") {
    val out = collection.mutable.ArrayBuffer.empty[String]
    Eval.printTimingTable(Seq("a"), Seq(Seq("1")), out += _)
    assert(out.length == 4)
    assert(out.last == s"(static algorithms on ${Runtime.getRuntime.availableProcessors} worker threads)")
  }

  test("edgesOf is cached and deterministic") {
    val spec = Datasets.byKey("WQ")
    val a = Eval.edgesOf(spec)
    val b = Eval.edgesOf(spec)
    assert(a eq b)
    assert(a.length == spec.cfg.nE)
  }

  test("datasetStats agrees with the generated edges") {
    val s = Eval.datasetStats(Datasets.byKey("WN"))
    assert(s.e == Datasets.byKey("WN").cfg.nE)
    assert(s.u > 0 && s.l > 0 && s.spanDays > 0)
    assert(s.paperE == 907499L)
  }

  test("scalabilityPoint at fraction 1.0 uses every edge and is reproducible") {
    val spec = Datasets.byKey("WQ")
    val edges = Eval.edgesOf(spec)
    val a = Eval.scalabilityPoint(edges, 1.0, Datasets.DefaultDeltaSeconds,
      60000L, repro.core.Variant.PlusPlus, reps = 1, seed = 1)
    assert(a.isRight)
  }
}
