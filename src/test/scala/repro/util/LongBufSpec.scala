package repro.util

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** `rank` must agree with counting over a sorted array, at every offset. */
class LongBufSpec extends AnyFunSuite {

  private def bufOf(xs: Long*): LongBuf = {
    val b = new LongBuf
    xs.foreach(b += _)
    b
  }

  test("rank on an empty buffer is 0") {
    val b = new LongBuf
    assert(b.isEmpty && b.length == 0)
    assert(b.rank(5, inclusive = false) == 0 && b.rank(5, inclusive = true) == 0)
  }

  test("rank on duplicates: strict stops before the run, inclusive after it") {
    val b = bufOf(1, 3, 3, 3, 5)
    assert(b.rank(3, inclusive = false) == 1)
    assert(b.rank(3, inclusive = true) == 4)
    assert(b.rank(0, inclusive = true) == 0)
    assert(b.rank(5, inclusive = false) == 4 && b.rank(5, inclusive = true) == 5)
    assert(b.rank(9, inclusive = false) == 5)
  }

  test("rank with a non-zero from never returns less than from") {
    val b = bufOf(1, 3, 3, 3, 5)
    assert(b.rank(3, inclusive = false, from = 2) == 2)
    assert(b.rank(3, inclusive = true, from = 2) == 4)
    assert(b.rank(1, inclusive = true, from = 3) == 3)
    assert(b.rank(9, inclusive = true, from = 5) == 5)
  }

  test("rank matches a linear count past growth and after dropFront") {
    val rnd = new Random(7)
    val xs = Array.fill(1000)(rnd.nextInt(300).toLong).sorted
    val b = new LongBuf
    xs.foreach(b += _)
    assert(b.length == 1000 && (0 until 1000).forall(i => b(i) == xs(i)))
    b.dropFront(400)
    val live = xs.drop(400)
    for (x <- -1L to 301L; from <- Seq(0, 17, 599)) {
      assert(b.rank(x, inclusive = false, from) == math.max(from, live.count(_ < x)), s"x=$x from=$from")
      assert(b.rank(x, inclusive = true, from) == math.max(from, live.count(_ <= x)), s"x=$x from=$from")
    }
  }

  test("pop and dropFront remove from the two ends") {
    val b = bufOf(1, 2, 3, 4, 5)
    assert(b.pop() == 5 && b.last == 4 && b.length == 4)
    b.dropFront(2)
    assert(b.length == 2 && b(0) == 3 && b(1) == 4)
    b.dropFront(2)
    assert(b.isEmpty)
    intercept[IllegalArgumentException](b.pop())
    intercept[IllegalArgumentException](b.dropFront(1))
  }

  test("a queue that slides forward keeps its order through compaction") {
    val b = new LongBuf
    (0L until 10L).foreach(b += _)
    for (next <- 10L until 5000L) { b += next; b.dropFront(1) }
    assert(b.length == 10 && (0 until 10).forall(i => b(i) == 4990L + i))
  }

  test("sortInPlace sorts only the live elements") {
    val b = bufOf(9, 4, 7, 1, 8)
    b.dropFront(1)
    b.sortInPlace()
    assert((0 until b.length).map(b(_)) == Seq(1L, 4L, 7L, 8L))
  }
}
