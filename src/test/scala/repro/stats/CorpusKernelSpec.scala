package repro.stats

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.core.{Contribution, PairingKernel}
import repro.data.Regions
import repro.exp.Experiments
import repro.exp.Experiments.ContributorRow

/** The driver-side corpus statistics against the [[CuisineStats]]
  * DataFrames they replace in `Experiments`: counts exactly, shares, sizes
  * and slopes to 1e-9 relative, and Fig 5 against the DataFrame ranking
  * chain.
  */
class CorpusKernelSpec extends AnyFunSuite with SparkSpec {

  import spark.implicits._

  /** The test corpus with the slots of every fifth recipe repeated:
    * repeated slots count in Fig 2 and in no other statistic.
    */
  private lazy val p = {
    val base = TestPipeline.get(spark)
    base.copy(recipes = base.recipes.unionByName(base.recipes.filter(col("recipe_id") % 5 === 0)))
  }
  private lazy val regional = Experiments.regionalRecipes(p)

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  test("the test corpus has repeated slots and UNREG recipes") {
    assert(p.recipes.count() > p.recipes.distinct().count())
    assert(p.recipes.filter(col("region") === CuisineStats.Unregioned).count() > 0)
  }

  test("table1 equals the DataFrame counts exactly, WORLD included") {
    val expected = CuisineStats.table1(p.recipes).collect()
      .map(r => r.getString(0) -> (r.getLong(1), r.getLong(2))).toMap
    val got = Experiments.table1(p)
    assert(got.map(r => r.region -> (r.recipes, r.ingredients)).toMap == expected)
    assert(got.size == expected.size)
  }

  test("categoryComposition equals the DataFrame shares, UNREG and WORLD included") {
    val expected = CuisineStats.categoryComposition(p.recipes, p.ingredients).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getDouble(3)).toMap
    val got = Experiments.categoryComposition(p).map(r => (r.region, r.category) -> r.share)
    assert(got.map(_._1).toSet == expected.keySet)
    assert(got.size == expected.size)
    assert(expected.keySet.map(_._1) == (Experiments.Table1Order :+ CuisineStats.Unregioned :+ CuisineStats.World).toSet)
    for ((k, share) <- got) assert(close(share, expected(k)), s"$k: $share vs ${expected(k)}")
  }

  test("meanSizes equals the DataFrame sizes, WORLD over the regional recipes") {
    val expected = CuisineStats.meanRecipeSize(CuisineStats.withWorld(regional)).collect()
      .map(r => r.getString(0) -> (r.getDouble(1), r.getInt(2))).toMap
    val got = Experiments.meanSizes(p)
    assert(got.map(_.region).toSet == expected.keySet && got.size == expected.size)
    for (s <- got) {
      val (mean, max) = expected(s.region)
      assert(close(s.meanSize, mean) && s.maxSize == max, s"${s.region}: $s vs $mean, $max")
    }
  }

  test("popularity equals the DataFrame frequencies, ranks and normalized frequencies") {
    val expected = CuisineStats.popularity(p.recipes).collect()
      .map(r => (r.getString(0), r.getInt(1)) -> (r.getLong(2), r.getInt(3), r.getDouble(4))).toMap
    val kernel = new CorpusKernel(p.recipes.as[(String, Long, Int)].collect())
    val got = for (region <- kernel.recipes.keys; q <- kernel.popularity(region))
      yield (region, q.ingId) -> (q.freq, q.rank, q.normFreq)
    assert(got.size == expected.size)
    for ((k, (freq, rank, norm)) <- got) {
      val (f, r, n) = expected(k)
      assert(freq == f && rank == r && close(norm, n), s"$k: ($freq, $rank, $norm) vs ($f, $r, $n)")
    }
  }

  test("popularitySlopes equals the DataFrame slopes") {
    val expected = CuisineStats.popularitySlope(regional).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    val got = Experiments.popularitySlopes(p)
    assert(got.map(_._1).toSet == expected.keySet && got.size == expected.size)
    for ((region, slope) <- got) assert(close(slope, expected(region)), s"$region: $slope vs ${expected(region)}")
  }

  test("worldSizeHistogram equals the DataFrame histogram exactly, UNREG included") {
    val expected = CuisineStats.sizeDistribution(p.recipes.withColumn("region", lit(CuisineStats.World)))
      .collect().map(r => (r.getInt(1), r.getLong(2))).sortBy(_._1).toVector
    assert(Experiments.worldSizeHistogram(p) == expected)
  }

  test("topContributors equals the DataFrame ranking, name and popularity joins") {
    val signs = Regions.all.map(r => r.code -> r.zSign).toMap
    val kernel = PairingKernel(p.universe)
    val rows = regional.as[(String, Long, Int)].collect()
    val chi = (for {
      (region, rs) <- rows.groupBy(_._1).toSeq
      c            <- kernel.chi(PairingKernel.recipes(rs))
    } yield (region, c.ingId, c.chi, c.nsWithout, c.freq)).toDF("region", "ing_id", "chi", "ns_without", "freq")
    val pop = CuisineStats.popularity(regional).select(col("region"), col("ing_id"), col("rank").as("pop_rank"))
    val expected = Contribution.topContributors(chi, signs.toSeq.toDF("region", "sign"), 3)
      .join(broadcast(p.ingredients.select("ing_id", "name")), "ing_id")
      .join(pop, Seq("region", "ing_id"))
      .select("region", "rank", "name", "chi", "freq", "pop_rank")
      .collect()
      .map(r => ContributorRow(r.getString(0), r.getInt(1), r.getString(2), r.getDouble(3), r.getLong(4), r.getInt(5)))
      .toVector
      .sortBy(r => (r.region, r.rank))
    assert(expected.size == 3 * Experiments.Table1Order.size)
    assert(Experiments.topContributors(p, signs) == expected)
    val some = signs.filter { case (region, _) => Set("KOR", "ITA")(region) }
    assert(Experiments.topContributors(p, some) == expected.filter(r => some.contains(r.region)))
  }

  test("recipes of different regions that share an id are one recipe in the WORLD sizes, as in the DataFrames") {
    // Id 1 is in KOR and JPN, id 2 in KOR and UNREG, with a duplicate slot.
    val rows = Seq(("KOR", 1L, 5), ("KOR", 1L, 6), ("JPN", 1L, 6), ("JPN", 1L, 7),
                   ("KOR", 2L, 5), ("UNREG", 2L, 8), ("UNREG", 2L, 8), ("JPN", 3L, 5))
    val df = rows.toDF("region", "recipe_id", "ing_id")
    val regionalDf = df.filter(col("region") =!= CuisineStats.Unregioned)
    val k = new CorpusKernel(rows.toArray)
    val sizes = CuisineStats.meanRecipeSize(CuisineStats.withWorld(regionalDf)).collect()
      .map(r => r.getString(0) -> (r.getDouble(1), r.getInt(2))).toMap
    assert(k.meanSizes.map(r => r._1 -> (r._2, r._3)).toMap == sizes)
    assert(sizes(CuisineStats.World) == ((3.0 + 1.0 + 1.0) / 3, 3))
    val hist = CuisineStats.sizeDistribution(df.withColumn("region", lit(CuisineStats.World))).collect()
      .map(r => r.getInt(1) -> r.getLong(2)).toMap
    assert(k.sizeHistogram.toMap == hist && hist == Map(1 -> 1L, 2 -> 1L, 3 -> 1L))
    val table1 = CuisineStats.table1(df).collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2)))
    assert(k.table1.sorted == table1.toVector.sorted)
    assert(k.recipes("KOR").map(_.toSeq).toSeq == Seq(Seq(5, 6), Seq(5)))
  }

  test("popularitySlopes rejects a region with one distinct ingredient, naming it, as the DataFrame path fails") {
    val tiny = p.copy(recipes = Seq(("KOR", 1L, 5), ("KOR", 2L, 5), ("KOR", 2L, 5),
                                    ("JPN", 3L, 1), ("JPN", 3L, 2), ("JPN", 4L, 2))
      .toDF("region", "recipe_id", "ing_id"))
    val e = intercept[IllegalArgumentException](Experiments.popularitySlopes(tiny))
    assert(e.getMessage.contains("KOR") && !e.getMessage.contains("JPN"))
    val df = intercept[Exception](CuisineStats.popularitySlope(Experiments.regionalRecipes(tiny)).collect())
    assert(df.toString.contains("DIVIDE_BY_ZERO"), df.toString)
  }
}
