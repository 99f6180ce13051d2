package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.data.Regions
import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Regenerates paper Table 1 at full scale and checks exact agreement. */
class Table1Bench extends AnyFunSuite with SparkSpec {

  private lazy val p = Pipeline.get(spark, scale = 1.0)

  test("TABLE 1 — recipes and ingredients across world cuisines") {
    val rows = Experiments.table1(p)
    println("\n" + Experiments.renderTable1(rows))

    for (spec <- Regions.all) {
      val got = rows.find(_.region == spec.code).get
      assert(got.recipes == spec.recipes, s"${spec.code} recipes")
      assert(got.ingredients == spec.ingredients, s"${spec.code} ingredients")
    }
    assert(rows.find(_.region == "WORLD").get.recipes == 45772)
  }
}
