package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class SparkCountJobSpec extends AnyFunSuite {

  test("an unknown variant name is rejected with the name in the message") {
    val e = intercept[IllegalArgumentException](SparkCountJob.main(Array("WN", "40", "plusplusplus")))
    assert(e.getMessage.contains("'plusplusplus'"), e.getMessage)
  }
}
