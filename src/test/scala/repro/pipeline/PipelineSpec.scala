package repro.pipeline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.flavor.FlavorTables
import repro.ingest.Aliaser

/** End-to-end pipeline integrity: phrase synthesis → aliasing must be
  * lossless against the ground-truth corpus.
  */
class PipelineSpec extends AnyFunSuite with SparkSpec {

  private lazy val p = TestPipeline.get(spark)

  test("pipeline instances are cached per (scale, seed)") {
    assert(TestPipeline.get(spark) eq p)
  }

  test("a pipeline belongs to the session that asked for it") {
    val other = spark.newSession()
    assert(Pipeline.get(other, TestPipeline.Scale).spark eq other)
  }

  test("one phrase is generated per ground-truth ingredient slot") {
    val slots = p.groundTruth.map(_.ingredientIds.size.toLong).sum
    assert(p.phrases.count() == slots)
  }

  test("aliasing is lossless: zero unmatched phrases") {
    val unmatched = Aliaser.alias(spark, p.universe, p.phrases)
      .filter(col("ing_id") === Aliaser.UnmatchedId).count()
    assert(unmatched == 0)
  }

  test("aliasing recovers the ground truth exactly") {
    val got = p.recipes.collect()
      .map(r => (r.getString(0), r.getLong(1), r.getInt(2))).toSet
    val expected = p.groundTruth
      .flatMap(r => r.ingredientIds.map(i => (r.region, r.recipeId, i))).toSet
    assert(got == expected)
  }

  test("every generated region is present in the aliased table") {
    import spark.implicits._
    val regions = p.recipes.select("region").distinct().as[String].collect().toSet
    assert(regions == repro.data.Regions.generated.map(_.code).toSet)
  }

  test("pairShared is non-trivial") {
    assert(p.pairShared.count() > 100000) // 943 ingredients, dense core overlap
  }

  test("pairShared equals the self-join on the pipeline's profiles") {
    // Keeps the overlap behind the DataFrame reference scorers independent
    // of FlavorUniverse.overlap, which pairShared is read off.
    val reference = FlavorTables.pairShared(p.profiles)
    def fields(df: DataFrame) = df.schema.fields.map(f => (f.name, f.dataType, f.nullable)).toSeq
    assert(fields(p.pairShared) == fields(reference))
    assert(p.pairShared.count() == reference.count())
    assert(p.pairShared.exceptAll(reference).isEmpty)
    assert(reference.exceptAll(p.pairShared).isEmpty)
  }

  test("profiles cover all ingredients except the profile-free additives") {
    import spark.implicits._
    val withProfile = p.profiles.select("ing_id").distinct().as[Int].collect().toSet
    val expected = p.universe.ingredients.filter(_.profile.nonEmpty).map(_.id).toSet
    assert(withProfile == expected)
  }
}
