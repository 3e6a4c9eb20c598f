package org.apache.spark

import org.apache.spark.scheduler.StageInfo

/** Reaches two things Spark keeps private to its own package: draining the
  * listener bus, and the operator scopes of a stage's RDDs.
  */
object ListenerDrain {

  /** Wait until every event posted so far has reached the listeners. */
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Names of the SQL operators whose RDDs a stage computes. */
  def scopeNames(info: StageInfo): Seq[String] = info.rddInfos.flatMap(_.scope.map(_.name)).toSeq
}
