package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Expected values printed by CPython 3 statistics.quantiles(xs, n=4).
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(3.0, 1.0, 2.0)) == ((1.0, 2.0, 3.0)))
    assert(Stats.quartiles(Seq(5.0, 1.0)) == ((0.0, 3.0, 6.0))) // extrapolates, as Python does
    val (q1, q2, q3) = Stats.quartiles(Seq(0.91, 0.87, 1.02, 0.95, 0.99, 1.10, 0.89))
    assert(math.abs(q1 - 0.89) < 1e-12 && math.abs(q2 - 0.95) < 1e-12 && math.abs(q3 - 1.02) < 1e-12)
  }

  test("a tail percentile needs ten samples beyond it") {
    assert(Stats.samplesBeyond(200, 95) == 10)
    assert(Stats.samplesBeyond(199, 95) == 9)
    assert(Stats.samplesBeyond(1000, 99) == 10)
    val xs = (1 to 200).map(_.toDouble).reverse
    assert(Stats.tailPercentile(xs, 95) == 190.0)
    assert(Stats.tailPercentile(xs, 50) == 100.0)
    assertThrows[IllegalArgumentException](Stats.tailPercentile(xs.drop(1), 95))
    assertThrows[IllegalArgumentException](Stats.tailPercentile(xs, 99))
    assertThrows[IllegalArgumentException](Stats.tailPercentile(Nil, 50))
  }

  test("percentile of a distribution has no sample floor") {
    assert(Stats.percentile(Seq(5.0, 1.0, 3.0), 99) == 5.0)
    assert(Stats.percentile(Seq(5.0, 1.0, 3.0), 50) == 3.0)
  }

  test("self time is the span minus the union of its children") {
    val parent = Span(0, 100)
    assert(Stats.selfTime(parent, Nil) == 100)
    assert(Stats.selfTime(parent, Seq(Span(10, 30), Span(50, 60))) == 70)
    // Overlapping children count once; parts outside the parent do not count.
    assert(Stats.selfTime(parent, Seq(Span(20, 40), Span(10, 30), Span(90, 120), Span(-5, 5))) == 55)
    assert(Stats.selfTime(parent, Seq(Span(150, 160))) == 100)
    assert(Stats.selfTime(parent, Seq(Span(0, 100), Span(10, 20))) == 0)
  }
}
