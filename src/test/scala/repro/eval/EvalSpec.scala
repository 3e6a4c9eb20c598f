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

  // The five experiments of jobs/ and bench/, each on one small dataset.

  private def run[A](f: (String => Unit) => A): (A, Seq[String]) = {
    val out = collection.mutable.ArrayBuffer.empty[String]
    (f(out += _), out.toSeq)
  }

  // printTable separates columns by at least two spaces
  private def cells(line: String): Seq[String] = line.trim.split("  +").toSeq

  private lazy val wnTotal =
    LocalAlgos.tbcPlusPlus(Eval.graphOf(Datasets.byKey("WN")), Datasets.DefaultDeltaSeconds).sum

  test("table3 prints its header and one row per dataset") {
    val (rows, out) = run(Eval.table3(Seq(Datasets.byKey("WQ"), Datasets.byKey("WN")), _))
    assert(cells(out.head).take(5) == Seq("Dataset", "|E|", "|U|", "|L|", "Span(d)"))
    assert(cells(out.head).length == 9 && cells(out.head).last == "paperSpan(d)")
    assert(out.length == 4 && rows.map(_.key) == Seq("WQ", "WN"))
    assert(cells(out(2)).take(2) == Seq("WQ", rows.head.e.toString))
    assert(cells(out(3)).head == "WN")
  }

  test("table4 prints the TBC++ total and the per-type shares") {
    val (rows, out) = run(Eval.table4(Datasets.DefaultDeltaSeconds, Seq(Datasets.byKey("WN")), _))
    assert(cells(out.head) == Seq("Dataset", "Entities", "Total", "T0", "T1", "T2", "T3", "T4", "T5"))
    assert(out.length == 3 && rows.length == 1)
    assert(cells(out(2)).take(3) == Seq("WN", "user-page", wnTotal.toString))
  }

  test("overallPerf prints every algorithm's time and the TBC++ total") {
    val (rows, out) = run(Eval.overallPerf(_ => 60000L, Seq(Datasets.byKey("WN")), _))
    assert(cells(out.head) ==
      Seq("Dataset", "TBC(ms)", "TBC+(ms)", "TBC++(ms)", "TBE(ms)", "TBE+(ms)", "Total counts"))
    assert(out.length == 4 && rows.length == 1)
    val row = cells(out(2))
    assert(row.head == "WN" && row.length == 7 && row.last == wnTotal.toString)
    assert(out.last.startsWith("(static algorithms on "))
  }

  test("deltaSweep prints one row per delta with per-type columns") {
    val (sweep, out) = run(Eval.deltaSweep("WQ", 60000L, _))
    assert(out.head == "== WQ: varying delta (TLE = 60s) ==")
    assert(cells(out(1)) == Seq("delta", "TBC(ms)", "TBC+(ms)", "TBC++(ms)", "TBE(ms)", "TBE+(ms)",
      "Total", "T0", "T1", "T2", "T3", "T4", "T5"))
    assert(sweep.map(_._1) == Eval.SweepDeltaDays)
    assert(out.slice(3, 8).map(cells(_).head) == Eval.SweepDeltaDays.map(d => s"${d}d"))
    assert(out.slice(3, 8).map(cells(_)(6)) == sweep.map(_._3.counts.sum.toString))
  }

  test("scalability prints one row per edge fraction") {
    val (table, out) = run(Eval.scalability("WQ", 60000L, reps = 1, seed = 1, _))
    assert(out.head == "== WQ: scalability (TLE = 60s, 1 reps) ==")
    assert(cells(out(1)) == Seq("|E| frac", "TBC(ms)", "TBC+(ms)", "TBC++(ms)"))
    assert(table.map(_._1) == Eval.ScalabilityFractions)
    assert(out.slice(3, 8).map(cells(_).head) == Seq("20%", "40%", "60%", "80%", "100%"))
    assert(table.forall(_._2.forall(_._2.isRight)))
  }
}
