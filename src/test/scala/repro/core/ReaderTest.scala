package repro.core

import java.math.BigDecimal
import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.{col, expr}
import org.apache.spark.sql.types._
import repro.{SparkSpec, TestData}
import repro.baselines.OneBucket

/** The input contract of `BandJoinExec.rows`, the one reader of S and T:
  * which column types it reads and how, which it rejects, and when.
  */
class ReaderTest extends SparkSpec {

  private def bits(x: Array[Double]): Seq[Long] = x.map(java.lang.Double.doubleToRawLongBits).toSeq

  test("int, long, float, double and decimal join columns read as col(c).cast(\"double\")") {
    val types = Seq(ByteType, ShortType, IntegerType, LongType, FloatType, DoubleType,
      DecimalType(38, 18), DecimalType(10, 3))
    val dims = types.indices.map(i => s"a${i + 1}")
    val schema = StructType(StructField("id", LongType) +: dims.zip(types).map { case (c, t) =>
      StructField(c, t) })
    def row(id: Long, b: Byte, sh: Short, i: Int, l: Long, f: Float, d: Double,
            dec: String, dec2: String) =
      Row(id, b, sh, i, l, f, d, new BigDecimal(dec), new BigDecimal(dec2))
    val rows = Seq(
      row(1, Byte.MinValue, Short.MinValue, Int.MinValue, Long.MinValue, Float.MinPositiveValue,
        -0.0, "0.100000000000000001", "-1234567.891"),
      row(2, Byte.MaxValue, Short.MaxValue, Int.MaxValue, Long.MaxValue, Float.MaxValue,
        Double.MaxValue, "12345678901234567890.123456789012345678", "0.001"),
      // 2^53 + 1 and 2^63 − 1 round to the nearest double.
      row(3, 0, -1, 7, (1L << 53) + 1, -0.0f, Double.MinPositiveValue,
        "-99999999999999999999.999999999999999999", "9999999.999"),
      row(4, -7, 300, -300000, -((1L << 53) + 3), 0.1f, Double.NegativeInfinity,
        "0.000000000000000001", "0.000"),
      row(5, 1, 2, 3, 4, Float.NaN, Double.NaN, "3.141592653589793238", "-0.005"))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
    val read = BandJoinExec.tuples(df, dims).collect().sortBy(_._1)
    val reference = df.select(col("id") +: dims.map(c => col(c).cast("double")): _*)
      .collect().sortBy(_.getLong(0))
    assert(read.map(_._1).toSeq == reference.map(_.getLong(0)).toSeq)
    for ((r, (id, x)) <- reference.zip(read))
      assert(bits(x) == bits(Array.tabulate(dims.length)(i => r.getDouble(1 + i))), s"id $id")
    // The same values go through the sampler's scan.
    val sampled = Samples.samplePoints(df, dims, 10, seed = 1)._1.map(p => bits(p.x)).toSet
    assert(sampled == read.map(r => bits(r._2)).toSet)
  }

  /** The exception `body` throws and the Spark jobs it started. */
  private def failure(body: => Any): (Throwable, Int) = {
    var e: Throwable = null
    val jobs = sparkJobs { e = intercept[IllegalArgumentException](body) }
    (e, jobs)
  }

  test("a string or timestamp join column fails before any task runs, naming the column and its type") {
    val base = spark.range(20).select(col("id"), col("id").cast("double").as("a1"))
    val str = base.withColumn("a2", col("id").cast("string"))
    val ts = base.withColumn("a2", expr("timestamp_seconds(id)"))
    val ok = base.withColumn("a2", col("a1"))
    val dims = Seq("a1", "a2")
    val band = BandSpec(Array(1.0, 1.0))
    val part = OneBucket.forWorkers(4)
    for ((df, typ) <- Seq((str, "string"), (ts, "timestamp"))) {
      for ((e, jobs) <- Seq(
             failure(BandJoinExec.pairs(ok, df, dims, band, part)),
             failure(Samples.draw(df, ok, dims, band, 100, 100)),
             failure(RecPart.exactBounds(ok, df, dims)),
             failure(Metrics.compute(df, ok, dims, part, BandJoinExec.pairs(ok, ok, dims, band, part))))) {
        assert(jobs == 0, typ)
        assert(e.getMessage.contains(s"join attribute a2 has type $typ"), e.getMessage)
      }
    }
    val (e, jobs) = failure(BandJoinExec.pairs(ok.withColumn("id", col("id").cast("double")), ok,
      dims, band, part))
    assert(jobs == 0)
    assert(e.getMessage.contains("id column id has type double"), e.getMessage)
  }

  test("a DataFrame cached after its first read still joins correctly") {
    val dims = Seq("a1", "a2")
    val band = BandSpec(Array(0.6, 0.6))
    val s = TestData.randomDf(spark, 200, 2, 201)
    val t = TestData.randomDf(spark, 150, 2, 202)
    val part = OneBucket.forWorkers(4)
    def joined = BandJoinExec.pairs(s, t, dims, band, part).collect().map(p => (p.sid, p.tid)).toSet
    def points(df: org.apache.spark.sql.DataFrame) =
      df.collect().map(r => (r.getLong(0), Array(r.getDouble(1), r.getDouble(2))))
    val truth = (for ((a, x) <- points(s); (b, y) <- points(t) if band.matches(x, y)) yield (a, b)).toSet
    assert(truth.nonEmpty)
    assert(joined == truth)
    try {
      s.cache(); t.cache()
      s.count(); t.count()
      assert(joined == truth)
      assert(Samples.draw(s, t, dims, band, 100, 100).sCount == 200)
    } finally { s.unpersist(); t.unpersist() }
  }
}
