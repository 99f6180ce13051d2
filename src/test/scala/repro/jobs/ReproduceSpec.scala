package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The main's argument handling; runs on the driver, with no Spark session. */
class ReproduceSpec extends AnyFunSuite {

  test("an unknown artifact is rejected with a message listing the valid names") {
    for (bad <- Seq("fig6", "")) {
      val e = intercept[IllegalArgumentException](Reproduce.artifacts(bad))
      for (name <- Seq("table1", "fig2", "fig3", "fig4", "fig5", "all"))
        assert(e.getMessage.contains(name), s"'$bad': ${e.getMessage}")
    }
  }

  test("all stands for the five artifacts in paper order, a name for itself") {
    assert(Reproduce.artifacts("all") == Vector("table1", "fig2", "fig3", "fig4", "fig5"))
    assert(Reproduce.artifacts("fig4") == Vector("fig4"))
  }
}
