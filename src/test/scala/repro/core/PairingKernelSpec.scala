package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.stats.CuisineStats

/** [[PairingKernel]] over `FlavorUniverse.overlap` against the DataFrame
  * reference over `pairShared` on pipeline data, to 1e-9 relative: real
  * cuisine scores, every χ row, and null-model cells scored from the same
  * sampled rows.
  */
class PairingKernelSpec extends AnyFunSuite with SparkSpec {

  import spark.implicits._

  private lazy val p = TestPipeline.get(spark)
  private lazy val regional = p.recipes.filter(col("region") =!= CuisineStats.Unregioned)
  private lazy val kernel = PairingKernel(p.universe)
  private lazy val byRegion: Map[String, Array[Array[Int]]] =
    regional.select("region", "recipe_id", "ing_id").as[(String, Long, Int)].collect()
      .groupBy(_._1).map { case (region, rows) => region -> PairingKernel.recipes(rows) }

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  private def sameOpt(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (Some(x), Some(y)) => close(x, y)
    case _                  => a == b
  }

  private def opt(r: Row, i: Int): Option[Double] = if (r.isNullAt(i)) None else Some(r.getDouble(i))

  /** (ns, sigma, n_recipes) of a `cuisineScores` row against the kernel. */
  private def assertSame(label: String, expected: Row, got: Option[PairingKernel.CuisineScore]): Unit = {
    val e = (expected.getDouble(1), expected.getDouble(2), expected.getLong(3))
    assert(got.exists(g => close(g.ns, e._1) && close(g.sigma, e._2) && g.nRecipes == e._3),
           s"$label: kernel $got, DataFrame $e")
  }

  test("real N_s^C, sigma and n equal cuisineScores in all 22 regions") {
    val expected = FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, regional, p.pairShared)).collect()
    assert(expected.map(_.getString(0)).toSet == byRegion.keySet && byRegion.size == 22)
    for (e <- expected) assertSame(e.getString(0), e, kernel.cuisine(byRegion(e.getString(0))))
  }

  test("every chi row equals Contribution.chi") {
    val expected = Contribution.chi(spark, regional, p.pairShared).collect()
      .map(r => (r.getString(0), r.getInt(1)) -> ((opt(r, 2), opt(r, 3), r.getLong(4)))).toMap
    val got = for ((region, rs) <- byRegion; c <- kernel.chi(rs)) yield
      (region, c.ingId) -> ((c.chi, c.nsWithout, c.freq))
    assert(got.keySet == expected.keySet)
    for ((k, (chi, nsWithout, freq)) <- expected; (gChi, gNs, gFreq) = got(k))
      assert(sameOpt(gChi, chi) && sameOpt(gNs, nsWithout) && gFreq == freq,
             s"$k: kernel ${got(k)}, DataFrame ${expected(k)}")
  }

  test("null-model cells equal the DataFrame scores of the same sampled rows") {
    val prof = RandomModels.profile(spark, "KOR", regional, p.ingredients)
    for (model <- RandomModels.AllModels) {
      val rows = RandomModels.sampleRows(prof, model, 500)
      val expected = FoodPairing.cuisineScores(FoodPairing.recipeScores(
        spark, rows.toDF("region", "recipe_id", "ing_id"), p.pairShared)).collect()
      assert(expected.length == 1)
      assertSame(model.name, expected(0), kernel.cuisine(PairingKernel.recipes(rows)))
    }
  }
}
