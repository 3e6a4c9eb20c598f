package repro.util

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The B+-tree against a sorted reference multiset on the inputs that
  * stress its node handling: extreme keys, runs of one key spanning many
  * leaves, trees of three and more levels, draining and regrowing, absent
  * keys, and keys carrying values.
  */
class OrderStatTreePropSpec extends AnyFunSuite {

  /** Sorted reference multiset: one sorted buffer, binary-searched. */
  private final class Ref {
    val a = ArrayBuffer.empty[Long]
    def rank(x: Long, inclusive: Boolean): Int = {
      var lo = 0; var hi = a.length
      while (lo < hi) {
        val m = (lo + hi) >>> 1
        if (if (inclusive) a(m) <= x else a(m) < x) lo = m + 1 else hi = m
      }
      lo
    }
    def insert(x: Long): Unit = a.insert(rank(x, inclusive = true), x)
    def erase(x: Long): Boolean = {
      val i = rank(x, inclusive = false)
      val hit = i < a.length && a(i) == x
      if (hit) a.remove(i)
      hit
    }
  }

  /** Every query of `t` at every probe, and its size and maximum, equal the reference's. */
  private def assertSame(t: OrderStatTree, ref: Ref, probes: Iterable[Long], label: String): Unit = {
    assert(t.size == ref.a.length && t.isEmpty == ref.a.isEmpty && t.nonEmpty == ref.a.nonEmpty, s"$label size")
    if (ref.a.nonEmpty) assert(t.maxKey == ref.a.last, s"$label maxKey")
    else intercept[IllegalArgumentException](t.maxKey)
    for (x <- probes) {
      val lt = ref.rank(x, inclusive = false); val le = ref.rank(x, inclusive = true)
      assert(t.countLess(x) == lt, s"$label countLess($x)")
      assert(t.countLessOrEqual(x) == le, s"$label countLessOrEqual($x)")
      assert(t.countGreater(x) == ref.a.length - le, s"$label countGreater($x)")
      assert(t.countGreaterOrEqual(x) == ref.a.length - lt, s"$label countGreaterOrEqual($x)")
      assert(t.contains(x) == (le > lt), s"$label contains($x)")
    }
  }

  /** `steps` random inserts and erases of keys drawn by `key`, checked
    * against the reference every `every` steps at `probes`.
    */
  private def randomOps(t: OrderStatTree, ref: Ref, rnd: Random, steps: Int, every: Int,
                        probes: Seq[Long], label: String)(key: => Long): Unit =
    for (step <- 1 to steps) {
      val x = key
      if (rnd.nextInt(5) < 3) { t.insert(x); ref.insert(x) }
      else assert(t.erase(x) == ref.erase(x), s"$label erase($x) at step $step")
      if (step % every == 0) assertSame(t, ref, probes, s"$label step $step")
    }

  private val extremes = Seq(Long.MinValue, Long.MinValue + 1, Long.MinValue + 2, -1L, 0L, 1L,
    Long.MaxValue - 2, Long.MaxValue - 1, Long.MaxValue)

  for (seed <- 1 to 4)
    test(s"keys at and next to Long.MinValue and Long.MaxValue (seed $seed)") {
      val rnd = new Random(seed)
      val t = new OrderStatTree; val ref = new Ref
      randomOps(t, ref, rnd, steps = 4000, every = 50, extremes, "extremes")(extremes(rnd.nextInt(extremes.length)))
    }

  for (seed <- 1 to 3)
    test(s"a run of one key spanning many leaves, erased while neighbours stay (seed $seed)") {
      val rnd = new Random(seed)
      val t = new OrderStatTree; val ref = new Ref
      val probes = (-1L to 22L)
      // 600 copies of 7 among keys 0..20: the run fills a dozen leaves and more.
      for (_ <- 1 to 1500) {
        val x = if (rnd.nextInt(5) < 2) 7L else rnd.nextInt(21).toLong
        t.insert(x); ref.insert(x)
      }
      assertSame(t, ref, probes, "filled")
      // Erase the run in random interleaving with other work, to empty.
      randomOps(t, ref, rnd, steps = 3000, every = 25, probes, "run") {
        if (rnd.nextInt(4) == 0) rnd.nextInt(21).toLong else 7L
      }
      while (t.erase(7L)) assert(ref.erase(7L))
      assert(!ref.erase(7L) && !t.contains(7L))
      assertSame(t, ref, probes, "run erased")
      (1 to 100).foreach { _ => t.insert(7L); ref.insert(7L) }
      assertSame(t, ref, probes, "run regrown")
    }

  test("at least fanout^2 distinct keys build three levels and more, in any insertion order") {
    val rnd = new Random(11)
    val n = 20000 // fanout 32: two levels hold at most 32 * 32 keys
    val orders = Seq("ascending" -> (0 until n), "descending" -> (n - 1 to 0 by -1),
      "shuffled" -> rnd.shuffle((0 until n).toVector))
    for ((name, order) <- orders) {
      val t = new OrderStatTree; val ref = new Ref
      order.foreach { i => t.insert(3L * i); ref.insert(3L * i) }
      val probes = Seq(-1L, 0L, 1L, 2L, 3L) ++ Seq.fill(300)(rnd.nextInt(3 * n + 3).toLong - 1)
      assertSame(t, ref, probes, name)
      // Erase every other key in random order, then check every rank again.
      rnd.shuffle((0 until n by 2).toVector).foreach { i => assert(t.erase(3L * i)); ref.erase(3L * i) }
      assertSame(t, ref, probes, s"$name, half erased")
      randomOps(t, ref, rnd, steps = 5000, every = 1000, probes, name)(rnd.nextInt(3 * n).toLong)
    }
  }

  for (seed <- 1 to 3)
    test(s"drains to empty through maxKey and erase, then regrows (seed $seed)") {
      val rnd = new Random(seed)
      val t = new OrderStatTree; val ref = new Ref
      val probes = Seq(Long.MinValue, -1L, 0L, 50L, 500L, 999L, 1000L, Long.MaxValue)
      for (round <- 1 to 3) {
        for (_ <- 1 to 3000) { val x = rnd.nextInt(1000).toLong; t.insert(x); ref.insert(x) }
        assertSame(t, ref, probes, s"round $round filled")
        var left = ref.a.length
        while (t.nonEmpty) {
          val m = t.maxKey
          assert(m == ref.a.last)
          assert(t.erase(m) && ref.erase(m))
          left -= 1
          if (left % 500 == 0) assertSame(t, ref, probes, s"round $round draining, $left left")
        }
        assert(left == 0)
        assertSame(t, ref, probes, s"round $round drained")
        assert(!t.erase(rnd.nextInt(1000).toLong))
      }
    }

  test("erasing absent keys returns false and changes nothing") {
    val rnd = new Random(5)
    val t = new OrderStatTree; val ref = new Ref
    val probes = (-2L to 2002L by 7L) ++ extremes
    assert(!t.erase(0L) && !t.erase(Long.MinValue) && !t.erase(Long.MaxValue))
    (0 until 2000 by 2).foreach { i => t.insert(i.toLong); t.insert(i.toLong); ref.insert(i.toLong); ref.insert(i.toLong) }
    for (_ <- 1 to 2000) {
      val odd = 2L * rnd.nextInt(1000) + 1
      Seq(odd, -1L, 2000L, Long.MinValue, Long.MaxValue).foreach(x => assert(!t.erase(x), s"erase($x)"))
    }
    assertSame(t, ref, probes, "after absent erases")
  }

  for (seed <- 1 to 4)
    test(s"with values, popMax returns a value inserted with a largest key (seed $seed)") {
      val rnd = new Random(seed)
      val t = new OrderStatTree(withValues = true)
      val pairs = ArrayBuffer.empty[(Long, Long)]; val ref = new Ref
      val probes = Seq(-1L, 0L, 25L, 50L, 99L, 100L)
      // Keys below 50 carry 1000 * key, so erasing one by key leaves the
      // pairs known; keys from 50 carry random values and go only by popMax.
      for (step <- 1 to 6000) {
        rnd.nextInt(6) match {
          case 0 | 1 | 2 =>
            val k = rnd.nextInt(100).toLong; val v = if (k < 50) 1000 * k else rnd.nextLong()
            t.insert(k, v); pairs += ((k, v)); ref.insert(k)
          case 3 | 4 if ref.a.nonEmpty =>
            val max = ref.a.last
            val v = t.popMax()
            val i = pairs.indexOf((max, v))
            assert(i >= 0, s"step $step: popMax gave $v, not a value of key $max")
            pairs.remove(i); ref.erase(max)
          case _ =>
            val k = rnd.nextInt(50).toLong
            val hit = ref.erase(k)
            assert(t.erase(k) == hit)
            if (hit) pairs -= ((k, 1000 * k))
        }
        if (step % 100 == 0) assertSame(t, ref, probes, s"step $step")
      }
      while (t.nonEmpty) { val max = ref.a.last; assert(pairs.contains((max, t.popMax()))); ref.erase(max) }
      intercept[IllegalArgumentException](t.popMax())
      intercept[IllegalArgumentException] { val p = new OrderStatTree; p.insert(1L); p.popMax() }
    }
}
