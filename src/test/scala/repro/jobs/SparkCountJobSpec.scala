package repro.jobs

import repro.SparkSpec

/** The jobs parse every argument before any Spark or counting work, so a
  * bad argument fails fast and leaves a running session alone.
  */
class SparkCountJobSpec extends SparkSpec {

  private val OverflowDays = "213503982334602" // wraps to 61,184 s in 64-bit arithmetic

  test("an unknown variant name is rejected with the name in the message") {
    val e = intercept[IllegalArgumentException](SparkCountJob.main(Array("WN", "40", "plusplusplus")))
    assert(e.getMessage.contains("'plusplusplus'"), e.getMessage)
  }

  test("an unknown dataset key is rejected with the key named, before Spark starts") {
    // A job that started Spark would get this session and stop it on the way out.
    val session = spark
    val e = intercept[NoSuchElementException](SparkCountJob.main(Array("XX", "40", "plusplus")))
    assert(e.getMessage.contains("XX"), e.getMessage)
    assert(!session.sparkContext.isStopped)
  }

  test("a delta whose seconds overflow a Long is rejected with the days named") {
    val session = spark
    for (job <- Seq[String => Unit](
        d => SparkCountJob.main(Array("WN", d, "plusplus")), d => Table4Job.main(Array(d)))) {
      val e = intercept[IllegalArgumentException](job(OverflowDays))
      assert(e.getMessage.contains(s"$OverflowDays days"), e.getMessage)
    }
    assert(!session.sparkContext.isStopped)
  }
}
