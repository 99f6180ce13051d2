package repro.pipeline

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.data.{PhraseGen, RecipeRow}
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

  /** The phrases rendered on the driver, as a local relation in corpus
    * order, dealt round-robin over `defaultParallelism` partitions.
    */
  private def driverPhrases(rows: Vector[RecipeRow]): DataFrame = {
    import spark.implicits._
    rows.flatMap(r => PhraseGen.phrases(p.universe, r).map { case (slot, ph) => (r.region, r.recipeId, slot, ph) })
      .toDF("region", "recipe_id", "slot", "phrase")
      .repartition(spark.sparkContext.defaultParallelism)
  }

  private def partitions(df: DataFrame): Seq[Seq[Row]] = df.rdd.glom().collect().map(_.toSeq).toSeq

  test("phrases and recipes hold the driver-rendered rows, partition by partition") {
    // Cached, as the pipeline caches its phrases: over an uncached frame the
    // aliaser's filter would be pushed below the round-robin repartition.
    val reference = driverPhrases(p.groundTruth).cache()
    try {
      assert(p.phrases.schema == reference.schema)
      assert(partitions(p.phrases) == partitions(reference))
      assert(partitions(p.recipes) == partitions(Aliaser.aliasedRecipes(spark, p.universe, reference)))
    } finally reference.unpersist(blocking = true)
  }

  test("phrases keep the driver-rendered layout on degenerate corpora") {
    val fewer = math.max(1, spark.sparkContext.defaultParallelism - 1)
    val oneRecipe = Vector(RecipeRow("KOR", 7L, Vector(3, 1, 4)))
    // Fewer slots than partitions, one per recipe, after a recipe with none.
    val fewSlots = RecipeRow("ITA", 1L, Vector.empty) +:
      Vector.tabulate(fewer)(i => RecipeRow("JPN", 10L + i, Vector(20 + i)))
    for (rows <- Seq(oneRecipe, fewSlots))
      assert(partitions(Pipeline.phrases(spark, p.universe, rows)) == partitions(driverPhrases(rows)),
             rows.map(_.recipeId))
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
