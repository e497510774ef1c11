package repro.core

import java.io.{DataInputStream, InputStream, OutputStream}
import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import java.nio.ByteBuffer
import org.apache.spark.Partitioner
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.serializer.{DeserializationStream, SerializationStream, Serializer, SerializerInstance}
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types._
import scala.collection.mutable.{ArrayBuffer, HashMap}
import scala.reflect.ClassTag

/** An input tuple routed to one partition of the join partitioning. */
final case class Routed(pid: Int, side: Int, id: Long, x: Array[Double])

/** One band-join output pair with both tuples' join-attribute points
  * (the points let Metrics re-derive, for any *other* partitioning, the
  * partition in which this pair would have been produced).
  */
final case class PairRow(sid: Long, tid: Long, s: Array[Double], t: Array[Double])

/** The distributed band-join pipeline (§2 "System Model"): the entire
  * input is read, each tuple is routed to the partitions chosen by the
  * `BandPartitioning` (map phase + shuffle), and each partition is
  * joined locally with the paper's index-nested-loops algorithm (reduce
  * phase). Because Definition 1 guarantees each result pair is recovered
  * by exactly one local join, no post-hoc duplicate elimination runs.
  *
  * The shuffle has one reduce task per worker: task k receives every
  * partition that `partitionWorker` maps to worker k and joins them one
  * after another, as the paper's worker does.
  *
  * Inputs are DataFrames with a unique long `id` column plus the join
  * attribute columns `dims`.
  */
object BandJoinExec {

  /** The one reader of an input: `df`'s rows as Spark plans them, once
    * per Dataset (`queryExecution.toRdd`), and the `Columns` that read its
    * id and join attributes `dims` from them. Every job reads its inputs
    * here. A join attribute must be a byte, short, int, long, float,
    * double or decimal column, and the id an integral one; any other type
    * is rejected here, on the driver, with the column's name and type.
    * Cache `df` before its first read: a cache added later is not used.
    */
  private[core] def rows(df: DataFrame, dims: Seq[String]): (RDD[InternalRow], Columns) = {
    val schema = df.schema
    def column(c: String, what: String, types: String)(ok: DataType => Boolean): (Int, DataType) = {
      val i = schema.fieldIndex(c)
      val t = schema(i).dataType
      require(ok(t), s"$what $c has type ${t.simpleString}; expected $types")
      (i, t)
    }
    val (idAt, idType) = column("id", "id column", "byte, short, int or long")(
      Set[DataType](ByteType, ShortType, IntegerType, LongType))
    val attrs = dims.map(column(_, "join attribute",
      "byte, short, int, long, float, double or decimal") {
      case ByteType | ShortType | IntegerType | LongType | FloatType | DoubleType | _: DecimalType => true
      case _ => false
    })
    (df.queryExecution.toRdd,
      new Columns(dims, idAt, idType, attrs.map(_._1).toArray, attrs.map(_._2).toArray))
  }

  /** Where an input's internal rows hold its id and join attributes. Both
    * are read as `col(c).cast(...)` would read them: the id as a long,
    * each join attribute as a double. Nulls are rejected, not skipped.
    */
  private[core] final class Columns(dims: Seq[String], idAt: Int, idType: DataType,
                                    at: Array[Int], types: Array[DataType]) extends Serializable {
    def id(r: InternalRow): Long = {
      require(!r.isNullAt(idAt), "null id")
      idType match {
        case LongType => r.getLong(idAt)
        case IntegerType => r.getInt(idAt).toLong
        case ShortType => r.getShort(idAt).toLong
        case _ => r.getByte(idAt).toLong // the one type left that `rows` admits
      }
    }

    /** Join attribute `i`. */
    def attribute(r: InternalRow, i: Int): Double = {
      val k = at(i)
      require(!r.isNullAt(k), s"null in join attribute ${dims(i)}")
      types(i) match {
        case DoubleType => r.getDouble(k)
        case FloatType => r.getFloat(k).toDouble
        case LongType => r.getLong(k).toDouble
        case IntegerType => r.getInt(k).toDouble
        case ShortType => r.getShort(k).toDouble
        case t: DecimalType => r.getDecimal(k, t.precision, t.scale).toDouble
        case _ => r.getByte(k).toDouble // the one type left that `rows` admits
      }
    }
  }

  /** Every tuple of `df` as its id and join-attribute point. */
  private[repro] def tuples(df: DataFrame, dims: Seq[String]): RDD[(Long, Array[Double])] = {
    val (in, cols) = rows(df, dims)
    in.map { r =>
      val k = cols.id(r)
      val x = new Array[Double](dims.length)
      var i = 0
      while (i < x.length) { x(i) = cols.attribute(r, i); i += 1 }
      (k, x)
    }
  }

  /** Every copy of `df`'s tuples as (pid, record). A record is the side,
    * the id and the raw bits of each coordinate, so it is lossless.
    */
  private def routed(df: DataFrame, dims: Seq[String], side: Int,
                     part: BandPartitioning): RDD[(Int, Array[Long])] =
    tuples(df, dims).flatMap { case (id, x) =>
      val rec = new Array[Long](x.length + 2)
      rec(0) = side
      rec(1) = id
      var i = 0
      while (i < x.length) { rec(i + 2) = doubleToRawLongBits(x(i)); i += 1 }
      val pids = if (side == 0) part.assignS(x, id) else part.assignT(x, id)
      pids.iterator.map(pid => (pid, rec))
    }

  /** The join-attribute point of a record. */
  private def point(rec: Array[Long]): Array[Double] = {
    val x = new Array[Double](rec.length - 2)
    var i = 0
    while (i < x.length) { x(i) = longBitsToDouble(rec(i + 2)); i += 1 }
    x
  }

  /** Sends partition `pid` to the reduce task of its worker. */
  private final class WorkerPartitioner(part: BandPartitioning) extends Partitioner {
    override def numPartitions: Int = part.numWorkers
    override def getPartition(key: Any): Int = {
      val pid = key.asInstanceOf[Int]
      val k = part.partitionWorker(pid)
      require(0 <= k && k < numPartitions,
        s"partition $pid maps to worker $k, outside [0, $numPartitions)")
      k
    }
  }

  /** The shuffle's serializer: it writes a (pid, record) as the pid, the
    * record's length and its longs, in one array copy, and reads them
    * back. Unlike Kryo it needs no per-stream set-up.
    */
  private object RecordSerializer extends Serializer with Serializable {
    override def newInstance(): SerializerInstance = new SerializerInstance {
      private def only = throw new UnsupportedOperationException("shuffle streams only")
      override def serialize[T: ClassTag](t: T): ByteBuffer = only
      override def deserialize[T: ClassTag](bytes: ByteBuffer): T = only
      override def deserialize[T: ClassTag](bytes: ByteBuffer, loader: ClassLoader): T = only

      override def serializeStream(s: OutputStream): SerializationStream = new SerializationStream {
        private var pid = 0
        private var buf = ByteBuffer.allocate(256)
        override def writeKey[T: ClassTag](key: T): SerializationStream = {
          pid = key.asInstanceOf[Int]; this
        }
        override def writeValue[T: ClassTag](value: T): SerializationStream = {
          val rec = value.asInstanceOf[Array[Long]]
          val n = 8 + 8 * rec.length
          if (buf.capacity < n) buf = ByteBuffer.allocate(n)
          buf.putInt(0, pid).putInt(4, rec.length).position(8)
          buf.asLongBuffer().put(rec)
          s.write(buf.array, 0, n)
          this
        }
        override def writeObject[T: ClassTag](t: T): SerializationStream = only
        override def flush(): Unit = s.flush()
        override def close(): Unit = s.close()
      }

      override def deserializeStream(s: InputStream): DeserializationStream = new DeserializationStream {
        private val in = new DataInputStream(s)
        private val head = ByteBuffer.allocate(8)
        private var body = ByteBuffer.allocate(256)
        override def readKey[T: ClassTag](): T = {
          in.readFully(head.array)
          head.getInt(0).asInstanceOf[T]
        }
        override def readValue[T: ClassTag](): T = {
          val rec = new Array[Long](head.getInt(4))
          if (body.capacity < 8 * rec.length) body = ByteBuffer.allocate(8 * rec.length)
          in.readFully(body.array, 0, 8 * rec.length)
          body.asLongBuffer().get(rec)
          rec.asInstanceOf[T]
        }
        override def readObject[T: ClassTag](): T = only
        override def close(): Unit = in.close()
      }
    }
  }

  /** Route a DataFrame's tuples: map-side explode by partition id. */
  def route(df: DataFrame, dims: Seq[String], side: Int,
            part: BandPartitioning): Dataset[Routed] = {
    val spark = df.sparkSession
    import spark.implicits._
    spark.createDataset(routed(df, dims, side, part).map { case (pid, rec) =>
      Routed(pid, side, rec(1), point(rec))
    })
  }

  /** Execute the distributed band-join and return the output pairs, in
    * one Spark partition per worker.
    */
  def pairs(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
            part: BandPartitioning): Dataset[PairRow] = {
    val spark = s.sparkSession
    import spark.implicits._
    val shuffled = new ShuffledRDD[Int, Array[Long], Array[Long]](
      routed(s, dims, 0, part).union(routed(t, dims, 1, part)), new WorkerPartitioner(part))
      .setSerializer(RecordSerializer)
    spark.createDataset(shuffled.mapPartitions { it =>
      val byPid = HashMap.empty[Int, (ArrayBuffer[Array[Long]], ArrayBuffer[Array[Long]])]
      it.foreach { case (pid, rec) =>
        val (sr, tr) = byPid.getOrElseUpdate(pid, (ArrayBuffer.empty, ArrayBuffer.empty))
        if (rec(0) == 0) sr += rec else tr += rec
      }
      byPid.valuesIterator.flatMap { case (sr, tr) =>
        val sPts = sr.map(point).toArray
        val tPts = tr.map(point).toArray
        val out = ArrayBuffer.empty[PairRow]
        LocalJoin.forEachMatch(sPts, tPts, band) { (si, ti) =>
          out += PairRow(sr(si)(1), tr(ti)(1), sPts(si), tPts(ti))
        }
        out.iterator
      }
    })
  }
}
