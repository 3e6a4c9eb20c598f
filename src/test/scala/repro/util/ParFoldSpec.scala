package repro.util

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite

/** The work-sharing fold must visit every item once, stop every worker
  * before it returns or throws, and never wait on a helper that has not
  * started.
  */
class ParFoldSpec extends AnyFunSuite {

  test("every item is folded exactly once, into the state of the worker that took it") {
    for (workers <- Seq(1, 2, 4, 16); n <- Seq(0, 1, 3, 1000)) {
      val states = ParFold(n, workers)(new Array[Int](n)) { (seen, i) => seen(i) += 1 }
      assert(states.nonEmpty && states.length <= math.max(workers, 1))
      val total = new Array[Int](n)
      states.foreach(s => (0 until n).foreach(i => total(i) += s(i)))
      assert(total.forall(_ == 1), s"workers=$workers n=$n")
    }
  }

  test("one worker runs inline on the calling thread") {
    val caller = Thread.currentThread()
    val threads = ParFold(50, 1)(ConcurrentHashMap.newKeySet[Thread]()) { (ts, _) => ts.add(Thread.currentThread()) }
    assert(threads.length == 1 && threads.head.size == 1 && threads.head.contains(caller))
  }

  test("the first failure is rethrown unwrapped after every worker stopped") {
    final class Boom extends RuntimeException("boom")
    val running = new AtomicInteger
    val err = intercept[Boom] {
      ParFold(400, 4)(()) { (_, i) =>
        running.incrementAndGet()
        try {
          if (i == 7) throw new Boom
          Thread.sleep(1)
        } finally running.decrementAndGet()
      }
    }
    assert(err.getMessage == "boom" && running.get == 0)
  }

  test("nested folds on busy common-pool threads do not deadlock") {
    val sums = ParFold(64, 8)(new Array[Long](1)) { (acc, i) =>
      acc(0) += ParFold(64, 8)(new Array[Long](1)) { (inner, j) => inner(0) += i * 64 + j }.map(_(0)).sum
    }
    val n = 64L * 64
    assert(sums.map(_(0)).sum == n * (n - 1) / 2)
  }
}
