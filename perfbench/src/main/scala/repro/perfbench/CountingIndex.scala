package repro.perfbench

import repro.core.WedgeIndex

/** Index operation counts gathered by [[CountingIndex]]. */
final class IndexCounters {
  var created = 0L
  var inserts = 0L
  var deleteCalls = 0L
  var countQueries = 0L
  var usefulQueries = 0L

  /** Share of `countCases` calls that added a non-zero count. */
  def usefulQueryRatio: Double =
    if (countQueries == 0) 0.0 else usefulQueries.toDouble / countQueries

  /** Index factory for `SetCross`: every index it makes is counted. */
  def factory(mk: () => WedgeIndex): () => WedgeIndex = () => {
    created += 1
    new CountingIndex(mk(), this)
  }
}

/** A [[WedgeIndex]] decorator that counts the calls `SetCross` makes into
  * the index it wraps, so index work is measured from outside the program.
  */
final class CountingIndex(inner: WedgeIndex, c: IndexCounters) extends WedgeIndex {

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    c.inserts += 1
    inner.insert(ts, ta, mid)
  }

  override def deleteAbove(bound: Long): Unit = {
    c.deleteCalls += 1
    inner.deleteAbove(bound)
  }

  override def countCases(curTa: Long, out: Array[Long]): Unit = {
    val before = out(0) + out(1) + out(2)
    inner.countCases(curTa, out)
    c.countQueries += 1
    if (out(0) + out(1) + out(2) != before) c.usefulQueries += 1
  }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    inner.visitCases(curTa)(f)
}
