package repro.util

import java.util.concurrent.{CountDownLatch, ForkJoinPool}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicReference}

/** Work-sharing parallel fold over the items `0 until n`.
  *
  * Each worker owns one state from `init` and folds the items it takes into
  * it with `step`; items are handed out one at a time, in index order,
  * through a shared cursor, so a slow item never holds up the rest of a
  * fixed share. Helpers run on the JDK common pool and the calling thread
  * works too. Before waiting, the caller claims every helper that has not
  * started yet, so it only ever waits for helpers that are running: a busy
  * or nested pool cannot deadlock it.
  *
  * It returns, or throws, only after every worker has stopped. The first
  * failure stops the hand-out and is rethrown as is.
  */
object ParFold {

  /** One worker per core: the worker count of the static drivers. */
  def workers: Int = Runtime.getRuntime.availableProcessors

  /** The states of the workers that ran, the caller's first. With one
    * worker, or at most one item, the caller is the only worker.
    */
  def apply[S](n: Int, workers: Int)(init: => S)(step: (S, Int) => Unit): Seq[S] = {
    val k = math.max(1, math.min(workers, n))
    val cursor = new AtomicInteger
    val failure = new AtomicReference[Throwable]
    val states = new Array[Any](k)
    def work(w: Int): Unit =
      try {
        val s = init
        states(w) = s
        var i = cursor.getAndIncrement()
        while (i < n) { step(s, i); i = cursor.getAndIncrement() }
      } catch {
        case t: Throwable => failure.compareAndSet(null, t); cursor.set(n)
      }

    val pending = new CountDownLatch(k - 1)
    val started = Array.fill(k)(new AtomicBoolean)
    val pool = ForkJoinPool.commonPool()
    for (w <- 1 until k)
      pool.execute(() => if (started(w).compareAndSet(false, true)) try work(w) finally pending.countDown())
    work(0)
    for (w <- 1 until k) if (started(w).compareAndSet(false, true)) pending.countDown()
    var interrupted = false
    while (pending.getCount > 0)
      try pending.await()
      catch { case _: InterruptedException => interrupted = true }
    if (interrupted) Thread.currentThread().interrupt()

    if (failure.get != null) throw failure.get
    states.iterator.filter(_ != null).map(_.asInstanceOf[S]).toSeq
  }
}
